import numpy as np
import pytest

from voxaug.rng import RandomStream


def test_same_seed_same_sequence():
    a = RandomStream(42).uniform(0, 1, 100)
    b = RandomStream(42).uniform(0, 1, 100)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    a = RandomStream(1).uniform(0, 1, 32)
    b = RandomStream(2).uniform(0, 1, 32)
    assert not np.array_equal(a, b)


def test_substream_path_sensitivity():
    root = RandomStream(7)
    a = root.substream("alpha").random()
    b = root.substream("beta").random()
    c = root.substream("alpha", 0).random()
    assert len({a, b, c}) == 3


def test_substream_independent_of_parent_draws():
    r1 = RandomStream(5)
    before = r1.substream("x").uniform(0, 1, 8)
    r2 = RandomStream(5)
    r2.uniform(0, 1, 1000)  # burn the parent
    after = r2.substream("x").uniform(0, 1, 8)
    np.testing.assert_array_equal(before, after)


def test_substream_order_independence():
    r = RandomStream(9)
    xs = {k: r.substream(k).random() for k in (0, 1, 2)}
    r2 = RandomStream(9)
    ys = {k: r2.substream(k).random() for k in (2, 0, 1)}
    assert xs == ys


def test_integer_tokens_distinct_from_strings():
    r = RandomStream(3)
    assert r.substream(1).random() != r.substream("1").random()


def test_bool_token_rejected():
    with pytest.raises(TypeError):
        RandomStream(0).substream(True)


def test_derived_seed_deterministic_and_in_range():
    s1 = RandomStream(11, ("a",)).derived_seed()
    s2 = RandomStream(11, ("a",)).derived_seed()
    assert s1 == s2
    assert 0 <= s1 < 2**63
    assert RandomStream(11, ("b",)).derived_seed() != s1


def test_scalar_and_array_draws():
    r = RandomStream(0)
    assert isinstance(r.random(), float)
    assert r.uniform(2.0, 2.0) == 2.0
    arr = r.normal(0.0, 1.0, (3, 4))
    assert arr.shape == (3, 4)
    ints = r.integers(0, 3, 1000)
    assert set(np.unique(ints)) <= {0, 1, 2}


def test_normal_zero_scale_is_exactly_zero():
    assert RandomStream(1).normal(0.0, 0.0, 16).tolist() == [0.0] * 16


def test_negative_seed_ok():
    a = RandomStream(-17).random()
    b = RandomStream(-17).random()
    assert a == b


@pytest.mark.parametrize("seed", [2**127, -(2**127) - 1, 2**128])
def test_a_seed_outside_the_key_range_is_refused(seed):
    with pytest.raises(ValueError) as excinfo:
        RandomStream(seed, ("augment",))
    assert str(excinfo.value) == f"seed must be in [-2**127, 2**127), got {seed}"


def test_seeds_at_the_ends_of_the_key_range_draw():
    for seed in (-(2**127), 2**127 - 1):
        stream = RandomStream(seed).substream("s")
        assert stream.random() == RandomStream(seed, ("s",)).random()


def test_repr_mentions_seed_and_path():
    r = RandomStream(4, ("augment", "s1"))
    assert "4" in repr(r) and "augment" in repr(r)


# --- pinned first draws -------------------------------------------------------
# Each method's first draws on a fresh stream, for three (seed, path) pairs,
# with the arguments augmentation passes: brightness's uniform(0.8, 1.2),
# rotation's uniform(0, max_deg, 3) and integers(0, 2, 3), flip's
# integers(0, 3), an elastic control grid's normal(0, sigma, (G, G, G, 3)).
# The values are exact (float.hex, ints), so a numpy release that changes a
# Generator distribution method fails the test that names that method, not
# only an output digest.

STREAMS = [(0, ()), (-7, ("augment", "phantom000")), (2**40 + 3, (3, "elastic", 0))]

PINNED = {
    (0, ()): {
        "random": "0x1.b91870479f3a0p-4",
        "uniform": "0x1.afa79f36c7f62p-1",
        "uniform_3": ["0x1.9d86e94325466p+1", "0x1.b218217e107fcp+4", "0x1.3ef6e0bf05809p+4"],
        "integers": 1,
        "integers_3": [0, 0, 0],
        "normal": [
            "-0x1.173aa898b560ap+3", "-0x1.39373d3679f48p+1", "-0x1.8f4f59ddfb528p+0",
            "-0x1.28a08a2bacfb8p+2", "-0x1.024a639216efbp+1", "-0x1.7aa4975c2387fp+0",
            "-0x1.21f90c08186bap+2", "0x1.03d9f57281fb8p+0", "0x1.2544798786caap+0",
            "-0x1.5f000fae16b9dp+2", "-0x1.fb691d68cd393p+0", "0x1.073bc2bdd40d5p+3",
            "0x1.80ff038aec12ap+1", "-0x1.4028902f41ce7p+2", "0x1.47dc4e7cba53ep+2",
            "-0x1.434372672db4cp+0", "-0x1.6928d66691b25p+2", "-0x1.11ff9149ddd28p+2",
            "0x1.0467aaef8bdf2p+1", "-0x1.b4d063db856ecp+0", "0x1.06ef51f2ca543p+0",
            "-0x1.a988c9ad55d33p-2", "0x1.accbf68ee111dp+3", "-0x1.d910b4dd3ce1fp-1",
        ],
        "derived_seed": 9207323440355831030,
    },
    (-7, ('augment', 'phantom000')): {
        "random": "0x1.b1de117911917p-1",
        "uniform": "0x1.2392d04b69e9ep+0",
        "uniform_3": ["0x1.96c0306180786p+4", "0x1.8c63cee24b888p+3", "0x1.48b4f09c834cdp+4"],
        "integers": 1,
        "integers_3": [1, 1, 0],
        "normal": [
            "-0x1.90e623c8fd04ap+1", "-0x1.f0d7ad2771feap+0", "-0x1.5f5648c904a38p+1",
            "0x1.8811d92e6dc14p+1", "0x1.4bcb42c3c265ap+2", "-0x1.0f49b03a12078p+1",
            "0x1.f35854217e8f8p-2", "0x1.a8e558d53a53fp-7", "-0x1.7e75c0e1414cap+1",
            "-0x1.37c51c112708ep+1", "-0x1.7a275af74118cp+0", "-0x1.56d3d001b4a62p+2",
            "0x1.5b4efc35e3338p+0", "0x1.2a1d5e1221d33p+1", "-0x1.4692f185ecce0p+2",
            "0x1.87d97b362c773p+1", "0x1.61034ce2067b9p+1", "0x1.3887f02cf2b6cp+2",
            "-0x1.d792ae11800c0p+1", "0x1.e5880a203c7a9p+2", "-0x1.d1d665bafef5bp-1",
            "-0x1.ce96b723c7984p+2", "0x1.bceca8ffbeb42p+2", "-0x1.04676da026bf1p+3",
        ],
        "derived_seed": 4195609509198877842,
    },
    (2**40 + 3, (3, 'elastic', 0)): {
        "random": "0x1.6984754f712d2p-1",
        "uniform": "0x1.151a7ddcb03c4p+0",
        "uniform_3": ["0x1.52ec2dfa7a1a5p+4", "0x1.7c84e1957cb00p+4", "0x1.643eeb4e10a37p+4"],
        "integers": 2,
        "integers_3": [1, 1, 1],
        "normal": [
            "0x1.d7a913dff2e1ap+2", "0x1.f0b18349bdf4cp-1", "-0x1.fec176accd065p+2",
            "0x1.161e445ea3022p+2", "-0x1.0514ed326e9ffp+2", "0x1.674ce45df7a46p+3",
            "0x1.5e9fcb80c08bcp+3", "-0x1.772a3768f2de2p+2", "-0x1.5aa255117e428p+1",
            "-0x1.04fa7273ba82fp+0", "0x1.da8895a96e562p-1", "-0x1.6982670d3caa2p-1",
            "-0x1.51e7409cb8f32p-1", "-0x1.11e7507ff729fp+2", "0x1.096f5fc7e9acfp+2",
            "0x1.ce78dfde06367p-1", "0x1.a5f2a72b45128p+0", "0x1.48c9aa324fc14p-2",
            "-0x1.1945108cbbf05p+2", "-0x1.3101495c3a7dep+0", "0x1.62ba08d293f51p+1",
            "-0x1.612ced7901c39p+1", "0x1.9915d8628b4f6p-6", "-0x1.d4673c16d2748p+2",
        ],
        "derived_seed": 4450457722670808707,
    },
}


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


DRAWS = {
    "random": lambda s: s.random().hex(),
    "uniform": lambda s: s.uniform(0.8, 1.2).hex(),
    "uniform_3": lambda s: _hex(s.uniform(0.0, 30.0, 3)),
    "integers": lambda s: s.integers(0, 3),
    "integers_3": lambda s: [int(v) for v in s.integers(0, 2, 3)],
    "normal": lambda s: _hex(s.normal(0.0, 5.0, (2, 2, 2, 3)).ravel()),
    "derived_seed": lambda s: s.derived_seed(),
}


@pytest.mark.parametrize("seed, path", STREAMS, ids=["seed0", "negative-seed", "mixed-path"])
@pytest.mark.parametrize("method", DRAWS)
def test_first_draws_are_pinned(seed, path, method):
    got = DRAWS[method](RandomStream(seed, path))
    assert got == PINNED[seed, path][method], f"{method} moved for {(seed, path)}"
