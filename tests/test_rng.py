import numpy as np
import pytest

from framekit.errors import BadParam
from framekit.rng import Stream, box_muller, counter_words, normal_words, seed_words, unit_vectors


def _hex(xs):
    return [float(x).hex() for x in xs]


# recorded from the two-draw Box-Muller (one raw draw for the radii, one for
# the angles), which the single draw must reproduce exactly
GOLDEN_NORMALS_5 = ['0x1.734e94ff0f216p-1', '0x1.0c066c9125a6cp+0', '-0x1.78a32cd8b7959p+0',
                    '0x1.4c4de86219ee7p-1', '-0x1.e35ea96fcff6ap+0']
GOLDEN_NORMALS_4 = ['0x1.f2780db59f64cp-1', '-0x1.d29555b6d1250p-1', '0x1.bdb665941cb3ap+0',
                    '0x1.cdd6fd900b3b5p-2']
GOLDEN_COMPLEX_3 = [('-0x1.502f57a07416fp-1', '-0x1.0e56f08ecfea3p+0'),
                    ('0x1.74bc2ec212e86p-2', '0x1.e3ffd0fe60f93p-2'),
                    ('-0x1.bf955f3c53356p-3', '-0x1.14614624c3442p-1')]
GOLDEN_UNIFORMS_2 = ['0x1.fbc696265eaa0p-1', '0x1.5b2b089fbbcfep-2']


def test_golden_values_odd_and_even_counts():
    s = Stream(2024)
    assert _hex(s.normals(5)) == GOLDEN_NORMALS_5
    assert _hex(s.normals(4)) == GOLDEN_NORMALS_4
    assert [(z.real.hex(), z.imag.hex()) for z in s.complex_normals(3)] == GOLDEN_COMPLEX_3
    # the cursor advanced by 6 + 4 + 6 words
    assert _hex(s.uniforms(2)) == GOLDEN_UNIFORMS_2
    assert _hex(Stream(0).normals(1)) == ['-0x1.cf9fb99cfab8fp-2']



@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_unit_vectors_equal_sequential_draws_and_leave_the_cursor_alike(n, cplx):
    block_stream, seq_stream = Stream(31), Stream(31)
    got = unit_vectors(block_stream, 25, n, cplx)
    assert got.shape == (25, n) and got.dtype == (np.complex128 if cplx else np.float64)
    for row in got:
        v = seq_stream.complex_normals(n) if cplx else seq_stream.normals(n)
        assert row.tobytes() == (v / np.linalg.norm(v)).tobytes()
    assert block_stream.raw(3).tobytes() == seq_stream.raw(3).tobytes()


def test_counter_words_of_many_seeds_equal_each_stream():
    seeds = [0, 1, 2**64 - 1, 2**64 + 5, -3, 123456789]
    block = counter_words(seed_words(seeds), 4, 6)
    assert block.shape == (6, 6)
    for seed, row in zip(seeds, block):
        stream = Stream(seed)
        stream.raw(4)
        assert row.tobytes() == stream.raw(6).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_complex_box_muller_equals_the_split_of_2n_real_normals(n):
    split, joined = Stream(77), Stream(77)
    z = split.normals(2 * n)
    want = z[:n] + 1j * z[n:]  # real parts first, then imaginary parts
    assert joined.complex_normals(n).tobytes() == want.tobytes()
    assert split.raw(3).tobytes() == joined.raw(3).tobytes()
    words = counter_words(seed_words([5, 6, 7]), 0, normal_words(n, True))
    real = box_muller(words, 2 * n, False)
    assert box_muller(words, n, True).tobytes() == (real[:, :n] + 1j * real[:, n:]).tobytes()


@pytest.mark.parametrize("count", [-1, 2**60, 2**61, 2**63 - 4, 2**64])
def test_raw_refuses_a_block_it_cannot_draw_and_keeps_its_cursor(count):
    # numpy's arange gives no words at all for 2**63 - 4 rather than raising
    stream, reference = Stream(0), Stream(0)
    with pytest.raises(BadParam, match="cannot draw"):
        stream.raw(count)
    assert stream.raw(3).tobytes() == reference.raw(3).tobytes()


def test_counter_words_reach_the_last_counter_and_stop_there():
    last = counter_words(0, 2**64 - 3, 2)
    assert last[1] == counter_words(0, 2**64 - 2, 1)[0]
    with pytest.raises(BadParam, match="cannot draw"):
        counter_words(0, 2**64 - 2, 2)
