"""Golden CLI output, pinned byte for byte.

The literals and digests below were recorded from the dense
P/(1-z) - Phi*P numerator pipeline, before the numerator was rebuilt from
the Apéry set; the two `tn` digests were recorded from the exp recurrence
over the power-sum ring, before T_n was built by the exponential formula.
The `--format table` and `--format tsv` digests were recorded before the
two renderers shared one field list per command. The `tn 54` digest, the
largest symbolic table, was recorded while the terms were still stored as
Fractions, before they became integers over one denominator. The two
`tn 9 --at` digests were recorded while T_n(x) was still read off a
RationalSeries of T_n(x)/n!. The two verify digests with non-default
--samples and --seed were recorded while each companion sample still went
through exact.power_sums and the dense umbral product; the 2,000-sample
one while each sign-flip sample still convolved its umbral factors one by
one, before the umbral side was read off pairwise factor products. The
`invariants ... --p-max 12 --format json` digest and the three
`hilbert 5 6 8 9 --p-max 12` digests were recorded while sigma and delta
still came from a generator_stats wrapper and K from a k_values helper.
The `verify --random ... --d-max 600` digest was recorded while
random_semigroup still drew through random.Random.randint and the CLI
still printed K_p and delta_k through str(Fraction). The two six-generator
`verify ... --p-max 64` digests were recorded while D was still the
convolution of E with every Bernoulli number and each record reduced its
own text over its own denominator.
Any change to what the CLI prints, however small, fails here.
"""

import hashlib
import json

import pytest

from felcheck import cli
from felcheck.semigroup import make_semigroup

H456_C = (
    "1 0 -240 -7920 -203520 -4804800 -109393920 -2448526080 -54345891840 "
    "-1201109437440 -26488005427200 -583475293040640"
)
H456_K = "11 212/3 2002/3 37984/5 1457456/15 28305152/21 139017296/7 2759167232/9 221013368576/45"

H456_TABLE = f"generators: 4 5 6\nQ: 0:1 10:-1 12:-1 22:1\nC: {H456_C}\nK: {H456_K}\n"
H456_TSV = f"key\tvalue\ngenerators\t4 5 6\nQ\t0:1 10:-1 12:-1 22:1\nC\t{H456_C}\nK\t{H456_K}\n"

# SHA-256 of the full stdout of each command line.
DIGESTS = {
    ("examples", "--format", "json"): "9b062aea357cd4c3824f05ae4db2d8ad64c24f54159091619211dcf738f65b39",
    ("hilbert", "4", "5", "6", "--format", "json"): "85f48e9056c72c24f7961cfd598ef5ca4e662c083f7b2bcf93debe919dd91e75",
    ("hilbert", "1009", "1013", "1019", "--format", "json"): (
        "260e1df6175732752118fa0acc3bf43e57827bf97627e718b8381a778b8bb209"
    ),
    ("verify", "211", "223", "227", "--p-max", "6", "--format", "json"): (
        "53641ad3ef9dc97b3ca2ecd26d8a5bb82c450f6a1828c2d0d744923c0ea2bd55"
    ),
    ("verify", "23", "29", "31", "37", "--p-max", "64", "--format", "json"): (
        "bd7ace2cddc83922c10b782e6189a39d540c7f30409679b386883faf25c9fb57"
    ),
    ("verify", "--random", "--seed", "7", "--count", "50", "--format", "json"): (
        "84bcb61afeef6dc869a2a0c592bd958f39dc4ba047b2793434c219ddcdd40907"
    ),
    ("verify", "--random", "--seed", "3", "--count", "30", "--m-max", "5", "--d-max", "40", "--p-max", "4"): (
        "2c31587c8d27c7e87acf0ce0e82b478d0f2b2b02d4b4bd87b1326ecfbd2c5f55"
    ),
    ("invariants", "3", "5", "--format", "table"): "957ec2a72d5f6d5912154a38dcd0c85745614f620de946a19e7c530e4f246eb1",
    ("invariants", "3", "5", "--format", "tsv"): "fda90fe17346a58e4a3b0c7b89e105de9167ab829f767a46fd085ee061ed4b49",
    ("invariants", "1", "--format", "table"): "acd29a747f42c9eeb1749ea222d9683970dab6985982db6ebdf698e340153325",
    ("invariants", "1", "--format", "tsv"): "3fb14ce8db37847bb3fee5cadf86678e98864862cd9b8e28a15c24e750115f3a",
    ("invariants", "5", "6", "8", "9", "--format", "table"): "6c12d3fabfd504ecb55196ad321ad56f6da528e5487ee6dcdafc0611cc05cbe0",
    ("invariants", "5", "6", "8", "9", "--format", "tsv"): "e091fc86b06de36193a140d6b176e01c836446a2f7960f611706e0d1b01b95dc",
    ("hilbert", "1009", "1013", "1019", "--format", "table"): "c2fcd99db680d55fedf122d83922f6b32923714db3c75f00a5e918f96ff8fa6d",
    ("hilbert", "1009", "1013", "1019", "--format", "tsv"): "9b69f44b0c56c2a83b54f4345fa6cfd2da8d6bdab94f1a9e191d713f58c778c1",
    ("tn", "7", "--format", "table"): "6c786b8afc0e4dc47d066258dd37837599d9e11b3434a1369ce3f995c9f9e56d",
    ("tn", "7", "--format", "tsv"): "042b1962149abe26a36cbcdf41cedab0eccba85c09b950ff03389d71efb15e6d",
    ("verify", "5", "6", "8", "9", "--p-max", "4", "--format", "table"): (
        "492fd2ea10547099330b2c72e517d8f9ef9e805641660d3b9de21a1f744dc51f"
    ),
    ("verify", "5", "6", "8", "9", "--p-max", "4", "--format", "tsv"): (
        "c66918cae1e07c47b9769304d05630a99d3302b1f023f34330952987bf73a51a"
    ),
    ("examples", "--format", "table"): "33324b0efcac4638e172d429870021233f9d970b81a7c8fbd4f0174ceb2c2777",
    ("examples", "--format", "tsv"): "d70da2cb5c4ff40345774ff1337412d54151c0a5a9f630b521c12b9173ada89c",
    ("tn", "30"): "c601e80f572457ed22136dddb881a397aad994ed315ac7c3ab7eb079a4216567",
    ("tn", "54"): "86f9f5b889ca52e927c64663a540e77ce40ad74705377ac5240c299c4235abc5",
    ("tn", "12", "--at", "1/2,3,-5", "--format", "json"): (
        "834d84370080ef74ce3008180c25c151e146f90c06280e86709aa7e2b3a1c310"
    ),
    # repeated and negative entries; "--at=" keeps the leading "-" off argparse's options
    ("tn", "9", "--at=-2,-2,3/7,5", "--format", "table"): (
        "3b8947b45325ec74fc00a7f591525f53ded67b75d5fd53c3d4605718c91d0c0d"
    ),
    ("tn", "9", "--at=-2,-2,3/7,5", "--format", "tsv"): (
        "dfdfc62f6867384994dc5fd1b8ffcb784e2a2b4a9c784feb3edd07fdd9333c7f"
    ),
    # sigma_1..sigma_13, delta_1..delta_13 and K_0..K_12 past the default p_max
    ("invariants", "5", "6", "8", "9", "--p-max", "12", "--format", "json"): (
        "9122f0aa021f713fc12a70c63b99a6355420552b63e806d9a85b34f70d22b7f2"
    ),
    ("hilbert", "5", "6", "8", "9", "--p-max", "12", "--format", "table"): (
        "363f5388a0b78096d8cd26a8810fb0d30150171767bd628ff01a64480fdc31e2"
    ),
    ("hilbert", "5", "6", "8", "9", "--p-max", "12", "--format", "json"): (
        "a6bb722feeb7b0382c467711bff060ac1aeb080920b6912de49f517eb55ee3fb"
    ),
    ("hilbert", "5", "6", "8", "9", "--p-max", "12", "--format", "tsv"): (
        "443c0007cb0c595dd14604dd3b300ae7e29aade8895a91f8e0bfe44c18df5e75"
    ),
    # width 600 draws 10 bits and rejects 424 of 1,024 values, so the draws'
    # rejection loop runs on about 41% of them
    ("verify", "--random", "--seed", "11", "--count", "30", "--m-max", "4", "--d-max", "600", "--p-max", "1",
     "--format", "tsv"): (
        "29c307ace3689e017f42c9d3a7ef76095d5bc03242b685b39109c3ef3ee2948a"
    ),
    # companion checks away from the default 20 samples at seed 0
    ("verify", "3", "5", "--samples", "500", "--seed", "12345", "--format", "tsv"): (
        "fbd717b50c98f530e7297712f93656dc99821d015c094b5b98f69a2622375c02"
    ),
    ("verify", "4", "5", "6", "--p-max", "2", "--samples", "7", "--seed", "99", "--format", "json"): (
        "76997559bf155e6bb88bf33141d3bd8cf46ed72fcb30a3688cfd5cd11602d5b1"
    ),
    # 2,000 samples: ten times the most that the Fraction-route comparison reaches
    ("verify", "3", "5", "--samples", "2000", "--seed", "7", "--format", "tsv"): (
        "01b52c298338f48214e22495ed9c8280ee30e40bbd51cf5e553f77576b53242c"
    ),
    # at p_max 0 the bundle's G runs one index past the series order
    ("verify", "5", "6", "8", "9", "--p-max", "0", "--format", "json"): (
        "cb34673139b3eef2e6b63d1d245909ace777aad954c1f7d3a02de84ef0d394e7"
    ),
    # six generators at p_max 64: order-70 lemma lists and 65 K_p values
    ("verify", "20", "29", "37", "41", "53", "59", "--p-max", "64", "--format", "json"): (
        "05caef3a26ef379f36b320b40b22ea68a199b8f41cd79d14b02c7e332bc4b072"
    ),
    ("verify", "20", "29", "37", "41", "53", "59", "--p-max", "64", "--format", "tsv"): (
        "c29a3aedc6af1988068d1e9a878c85aa19807d5a5d9d1495dfc09de068957642"
    ),
}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.mark.parametrize("argv", sorted(DIGESTS), ids=" ".join)
def test_digest(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[argv]


@pytest.mark.parametrize("fmt, expected", [("table", H456_TABLE), ("tsv", H456_TSV)])
def test_hilbert_456_literal(capsys, fmt, expected):
    code, out = run_cli(capsys, "hilbert", "4", "5", "6", "--format", fmt)
    assert code == 0
    assert out == expected


def test_hilbert_456_json_literal(capsys):
    _, out = run_cli(capsys, "hilbert", "4", "5", "6", "--format", "json")
    doc = json.loads(out)
    assert doc["Q"] == "0:1 10:-1 12:-1 22:1"
    assert " ".join(doc["C"]) == H456_C
    assert " ".join(doc["K"]) == H456_K


def test_examples_golden_sums_match_the_hilbert_literal():
    # the hand sums over the numerator's text give what `hilbert 4 5 6` prints
    sums = [str(cli._golden_c("0:1 10:-1 12:-1 22:1", r)) for r in range(12)]
    assert " ".join(sums) == H456_C


@pytest.mark.parametrize("gens", [gens for gens, _, _ in cli.GOLDEN_EXAMPLES], ids=str)
def test_examples_compare_every_sum_that_k_reads(gens):
    # K_p reads C_m .. C_{m+p}: with these all compared, K needs no comparison
    assert cli.EXAMPLE_C_MAX >= make_semigroup(gens).m + cli.EXAMPLE_P_MAX


def test_hilbert_large_numerator(capsys):
    _, out = run_cli(capsys, "hilbert", "1009", "1013", "1019", "--format", "json")
    doc = json.loads(out)
    assert doc["Q"] == "0:1 5065:-1 206845:-1 206857:-1 208883:1 209884:1"
    assert doc["C"][:3] == ["1", "0", "-2083074446"]
    assert doc["K"][:2] == ["105346", "87737777161/12"]
