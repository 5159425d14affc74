"""Domain hooks answered in closed form by the built-in kinds."""

import pytest

from diskflow.domains import (Channel, Disk, Domain, HalfPlane, HalfStrip,
                              SlitStrip, SpiralSector, Strip, example1_domain,
                              example2_domain, example3_domain,
                              exp_channel_domain)


# (Im w bounded below, Im w bounded above) for every built-in kind
EXTENTS = [
    (HalfPlane("right", 0.0), (False, False)),
    (HalfPlane("left", 2.0), (False, False)),
    (HalfPlane("upper", 1.0), (True, False)),
    (HalfPlane("lower", -1.0), (False, True)),
    (Strip(1.0, 0.5), (True, True)),
    (HalfStrip(-4.0, 0.5, 0.0), (True, True)),
    (Disk(1 + 1j, 2.0), (True, True)),
    (SlitStrip(1.0, ((-1.0, 0.0),)), (True, True)),
    (example1_domain(5), (True, True)),
    (example2_domain(), (False, False)),
    (example3_domain(), (False, False)),
    (exp_channel_domain(), (False, False)),
    (Channel(profile="log_cos"), (True, True)),
    (SpiralSector(1.0, 0.7), (False, False)),
    (SpiralSector(1.0 + 0.5j, 0.7), (False, False)),
]


@pytest.mark.parametrize("dom,expected", EXTENTS,
                         ids=[repr(d) for d, _ in EXTENTS])
def test_imag_bounded_exact_on_builtin_kinds(dom, expected):
    assert dom.imag_bounded() == expected


def test_real_sector_is_unbounded_both_ways():
    # the sampled default misses the sector {|arg w| < 0.7}: its probe
    # points sit at |arg| near pi/2
    sector = SpiralSector(1.0, 0.7)
    assert Domain.imag_bounded(sector) == (True, True)
    assert sector.imag_bounded() == (False, False)
    assert sector.contains(complex(1e7, 1e6))
    assert sector.contains(complex(1e7, -1e6))


class _UpperBand(Domain):
    """{Im w > 0} with no closed-form hooks."""

    kind = "upper_band"

    def contains(self, w):
        return complex(w).imag > 0.0


def test_imag_bounded_default_probe():
    assert _UpperBand().imag_bounded() == (True, False)


def test_channel_proposals_follow_the_profile():
    # pinned draws: each profile consumes the generator as it always has
    expected = {
        "inv_log": [1.6600350849445622 + 1.3476447384189623j,
                    -0.1715706609441474 - 2.0929387899810563j,
                    2.772131297302586 + 1.5653862256524462j],
        "inv_log_below": [1.6600350849445622 + 1.3476447384189623j,
                          -1.8160932674942956 - 1.7851917194711504j,
                          -7.352831571420123 - 1.1997867152868906j],
        "exp": [1.6350204662176608 + 3.1560441459818485j,
                -0.3927210727050059 - 0.2889718627152656j,
                -3.622485083328405 - 0.006225649186105415j],
        "log_cos": [2.4400233899630415 + 0.9664570982540311j,
                    0.122604488337136 - 0.6722518859134426j,
                    -0.7322143566400108 - 1.4271315501308803j],
    }
    for profile, pts in expected.items():
        assert Channel(profile=profile).interior_samples(3, seed=5) == pts
