"""Seeded outputs pinned count for count.

The sampling stream is Philox keyed by ``(seed, stream)`` feeding numpy's
``Generator.multinomial`` (values pinned with numpy 2.4.6).  Any change to the
stream, the law it draws from or the 2^-32 CDF grid shows up here first: a
change that claims byte-identical outputs must leave these tests untouched.
"""
from __future__ import annotations

import json

import numpy as np

from belldisc.circuit import BellKind, bell_prep, parity_check
from belldisc.cli import main
from belldisc.sampler import NoiseModel, sample_settings

NOISE_FLAG = "depol:0.02,0.05,readout:0.02"


def test_discriminate_psi_minus_seed_7(tmp_path, capsys):
    assert main(["discriminate", "--bell", "psi-", "--seed", "7", "--noise", NOISE_FLAG,
                 "--out", str(tmp_path)]) == 0
    assert "  100        6407  0.782104" in capsys.readouterr().out
    expected = {
        "parity": {"000": 601, "001": 119, "010": 183, "011": 184,
                   "100": 6407, "101": 228, "110": 296, "111": 174},
        "phase": {"000": 339, "001": 392, "010": 182, "011": 208,
                  "100": 309, "101": 6265, "110": 90, "111": 407},
    }
    for check, counts in expected.items():
        payload = json.loads((tmp_path / f"discriminate_psi_minus_{check}.counts.json").read_text())
        assert payload == {"n_bits": 3, "shots": 8192, "counts": counts}, check


# psi+ parity stage, depol:0.02,0.05,readout:0.02, 8192 shots, seed 7; rows in plan order XXX, XXY, ..., ZZZ
PSI_PLUS_PARITY_SEED_7 = [
    [1805, 1792, 244, 257, 239, 274, 1774, 1807],
    [1813, 1806, 249, 275, 253, 287, 1764, 1745],
    [3368, 224, 364, 151, 353, 130, 3395, 207],
    [1020, 1009, 1072, 1041, 1043, 999, 968, 1040],
    [1070, 1050, 1015, 1032, 989, 1001, 1017, 1018],
    [1808, 188, 1862, 196, 1879, 182, 1891, 186],
    [1044, 1014, 976, 1040, 1048, 1060, 984, 1026],
    [1009, 1042, 973, 1031, 1025, 1021, 1085, 1006],
    [1926, 180, 1826, 195, 1887, 190, 1804, 184],
    [1053, 1066, 1016, 1036, 1055, 1002, 981, 983],
    [1008, 996, 1001, 1021, 1063, 1027, 1060, 1016],
    [1888, 184, 1816, 168, 1893, 201, 1847, 195],
    [280, 294, 1695, 1815, 1774, 1755, 286, 293],
    [264, 268, 1751, 1801, 1826, 1711, 296, 275],
    [444, 152, 3261, 211, 3285, 210, 456, 173],
    [1008, 1041, 993, 1057, 1010, 1012, 1045, 1026],
    [1044, 1015, 967, 1022, 1018, 1092, 1066, 968],
    [1954, 170, 1817, 164, 1842, 177, 1898, 170],
    [1023, 1015, 1033, 1034, 1066, 1030, 984, 1007],
    [1045, 1014, 990, 1036, 1047, 1004, 968, 1088],
    [1910, 183, 1872, 164, 1800, 179, 1888, 196],
    [1021, 994, 1033, 1047, 1040, 965, 1046, 1046],
    [1040, 1005, 1067, 1008, 1008, 1032, 1034, 998],
    [1876, 167, 1877, 172, 1898, 194, 1825, 183],
    [1836, 1857, 231, 238, 215, 199, 1784, 1832],
    [1846, 1859, 174, 213, 218, 220, 1823, 1839],
    [3519, 147, 243, 194, 235, 218, 3443, 193],
]


def test_sample_settings_psi_plus_parity_seed_7():
    circuit = bell_prep(BellKind.PSI_PLUS).extend(parity_check())
    counts = sample_settings(circuit, 8192, NoiseModel(0.02, 0.05, 0.02), seed=7)
    assert np.array_equal(counts, np.array(PSI_PLUS_PARITY_SEED_7))
