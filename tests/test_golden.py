"""Golden reports: the JSON or text report of a battery, byte for byte.

Each digest is the sha256 of the bytes ``ccckit run --family F --size S
--seed 0 --format json`` writes.  The size-6 matrix digests were taken
once from the code before the matrix kernels were rewritten (adjugate
inverse, triple-loop product); the small-size digests of every family were
taken from the code before the engine built each conjugate once per
(power, generator) and before the batteries merged part reports through
``VerificationReport.extend``; the rational-workload digests (``pl`` at
bound 16 and ``wreath-tower`` at 200 samples, seeds 0 and 1) were taken
from the code before IETs and PL maps were stored as integers over one
denominator.  The size-8 matrix digests were taken from the code before
matrices were stored as sparse rows.  The braid digests were re-pinned when
the engine began deciding commutation as ab = ba: a passing commutation
record now shows the identity "e" as its lhs where it showed the unreduced
commutator word, and nothing else in the braid reports changed.  The
odd-size matrix digests (``gl``, ``sp`` and ``onn`` at size 1, every matrix
family at sizes 3 and 5) were taken from the code before the stabilization
of an odd block moved from the matrix battery into
``matrixring.classical_witness``; they guard the stabilization path.  The
stable-family digests (``perm`` at the odd size 3, ``aut-free`` at size 1,
where H is the inversion of x1, ``iet`` at sizes 1 and 3, whose block
lengths 1/2 and 3/2 print as fractions, and ``braid`` at size 6) were
taken from the code before the perm, matrix, braid, aut-free and iet
batteries became one ``suites.stable_battery``.  The text digests, of
the bytes ``--format text`` writes for ``perm``, ``sl`` and ``braid`` at
size 3 and ``pl`` and ``wreath-tower`` at their defaults, were taken from
the code before check records became the report's own dicts and the
render memo moved onto ``VerificationReport``.  The ``wreath-tower``
digests at 200 samples with seed 7 and at 1 sample with seed 0 (JSON),
and at 200 samples with seed 0 (text), were taken from the code before
the battery drew its tower samples once and handed the same draw to the
iet and perm chains; they pin a third seed, the smallest sample and the
rendered sample details.  A
kernel or engine change that alters any check, rendering or verdict shows
up here.
"""

import hashlib

import pytest

from ccckit import cli

SIZE_6_DIGESTS = {
    "gl": "f41914b58451d14526065b51bbed79c8e4c99db023de29221fe153e344a5f025",
    "sl": "4f966a25f72340e393a03ec31f84ccdd045ff9e1d6c4c25cf600b8d20f118663",
    "e": "0582ddbf98f4a212f2eb9c5f0e1e1fb48cd27eba485898d086cda0fdc9e65970",
    "sp": "9762a073d795064fef3e9334bacee802d7db9411e461be56997f4bba3da3fe96",
    "onn": "9e110ab3d9564a4eca0a9574e79a76b85d8345524d3f6cf097d26ebec7b2ca88",
}

SIZE_8_DIGESTS = {
    "gl": "13346090d499a96e3ce076794641231ec00363cb9bf2e2efb438fdfabae52ae5",
    "sl": "c9d007d0322caaff10f5a665d24067910bbee3e9aa40d484dffc933e483c7c6a",
    "e": "32f3ec77af927ee6153c55e6cd96d927eaed25d992d9dcd02a9d43dae6406c97",
    "sp": "08eb4c9140f222efe53d03993f1a8bcf2857d75fe67504628d74a24324ccb70d",
    "onn": "f3980ff88d6deb7bbb4ed7724d37c698fde7ac4b237f89803be81f9f7bfbec3e",
}

# (family, size) -> digest; size None runs the family at its defaults.
SMALL_DIGESTS = {
    ("aut-free", 2): "0255f078f416d5aa0a6f32696f71a41862bfd44c8cf6d5e00c83bfb71f0e475a",
    ("aut-free", 4): "304c615a30ede902b30eb6c9072511f2d8f4420857d806b582aecedc022296bd",
    ("braid", 2): "86c4edf0df47961016725b38d1c3d91429ed69a82c7d54eb34c428eaf189d152",
    ("braid", 3): "a947762431aff5cbc3b706feb628ff2157ffe7dfb8d00e96c42752a2bcd14db3",
    ("braid", 4): "2598c4ff0942aeba750e4e4eedfebdbf5bf7592b7d720378ef0845230c85296d",
    ("braid", 5): "2f6182646d879f32144f28a70e47669e59495fc49de8ee7317811d702c6fe959",
    ("closure", 2): "a4a4c65a9245a39bbf5eb91f2f076d0ecece0deee2c63ba11c4cace70be7ecad",
    ("e", 2): "1452d70be83d7bcfd625c9d711f50baa705cb6887228d92ac5c484ecd42ca6ec",
    ("e", 4): "498e100f8f11a4807824bafabf8f51313c78efc1a8623150d9337b8c77ab0fa7",
    ("gl", 2): "9f89d9e90f35f49aae18d4ee54c8d0be874efc5c41f00fd3f68c8d83779d0bc2",
    ("gl", 4): "c9f7a82697a1f21ec654eff9254b23fe8ec59aec1b8c4644e0c85bf37ac052a3",
    ("iet", 2): "6750c2a2bdc8fe2c5c058d410506d8587148d879eaf8cce4f5593f0a10f22a5e",
    ("iet", 4): "8561aa25720ad36e630701367590f872b08abc0030ed77190dbbd9d33d55339f",
    ("onn", 2): "aaca1a39e3eb1dba42fe73321b3d6a3b580fe1dbd327ca37403131a94ead610a",
    ("onn", 4): "e49127f16b20cb3184bace560d2c5ad32645138ccf9939dd014e276a8cf6d32a",
    ("perm", 2): "ff0869df0f4340c986f9a26232c5d8aab919b5b465dc923ce5920406fd172b3b",
    ("perm", 4): "fb789bca91ef310a707bca9ec043e4107717b132a921b2e2bd870e192833aee0",
    ("pl", 2): "2faa117d1462767bd7a2a6e1c474cf9970cacc050ec3a246f2c44ebb9ee857dc",
    ("pl", 4): "694f43d167ca25828dce61ddeda040c30d1bcc657cd1f4e2742768353c87b33b",
    ("sl", 2): "8b600d58ed114977894994ae8ed573c04d37f4866687bfafb5c2b16a5a49c7ce",
    ("sl", 4): "24538b47daa8a28350c0bb5cb4411e9271c9fe2127310ad817c017bcb2c8b458",
    ("sp", 2): "54e24be84a813e4352dc5eaaed99b05f7d845dfa2694fec8a983b900f5ff45ad",
    ("sp", 4): "41137759b599b84293689dff553d002332749c9c54c2a970fe6b4d80b1aef9ce",
    ("wreath-tower", None): "55b6faf0e0bad0f5ca0677f11e0b72fa1f1b43358f0d9a3b7d8bf1b33d55a701",
}

# (family, size) -> digest at the odd sizes, where the witness needs one
# stabilization step.
ODD_MATRIX_DIGESTS = {
    ("gl", 1): "5b799c78796d98174bc29fa1e924739d0d870d1cf3a2fdb27876e06fd3c1fc25",
    ("sp", 1): "079a4b1a889faef230974d02ba5ede7832b6202ed609e4fd48eb1479a042a37e",
    ("onn", 1): "5b0761f02d13ba8369f87464cf549b6d187e39cf7c63e63bd842accfdf076077",
    ("gl", 3): "fcac447b3ed59df673335de200740cd0dd8880f42bfeccf434eaafbf2dfec023",
    ("sl", 3): "b4a471eee75f8468bec41756b51f1229a728bf48ca7df2ede2be7853662d4e61",
    ("e", 3): "f11469d387600a60ef8c7f9d3cac9008786b53fb647f484cd97929238d1d97e3",
    ("sp", 3): "8425edf807c9fb4cd55962ba334765a4cbfcab84cd944e1a6af02946c0528480",
    ("onn", 3): "b7fc67dbdd939cf83326cd371ac8b56cc2c0b00e8243c6ab7579cd058834c7ba",
    ("gl", 5): "9773f2b147f4a3dd2f4210e3a50ab78e7bfecc3e7e24cdc26cd0e1c119a77ee0",
    ("sl", 5): "5ae8cae89d300b0c162e99944143f8f8f9deffe2e7c7594762dcc959ee308c44",
    ("e", 5): "b0c6a822f61e45c1d8afb427c0b37587549816ac3330e9498f6f001b7c730960",
    ("sp", 5): "91b5e45b30e2832073b136e4d346103bcbc3d15a40310545fca5ba73ebf839fb",
    ("onn", 5): "b9cd8f697d62a920e37358f06ed386d509aeb4473a53c3b0fd002957ae05ee92",
}

# (family, size) -> digest for branches of the stable batteries that the
# tables above miss.
STABLE_DIGESTS = {
    ("perm", 3): "7eb32e8ea1fd3d8aba4242a5ddcc7764e32a1df9877573a47377a81eb4e01d16",
    ("aut-free", 1): "e56a08bff5956fdda46463dc0164d916b8997eadef1c8de85d8e506f4379a36d",
    ("iet", 1): "ac3c2aee6f36192aa4aca9c93e45e06ab6ba1c74399be8bae95ea1ff681eeba5",
    ("iet", 3): "a849003d31e6a2f6b340923e721097046214559766926e3fea2aaca20745cc8f",
    ("braid", 6): "f3312942ed04c30e16be1ce061b7ba57e6677423bf561d27c42d2e4bc9cf07a7",
}

# (family, extra arguments, seed) -> digest: jobs of the rational workload
# that the defaults above do not cover.
RATIONAL_DIGESTS = {
    ("pl", ("--size", "3", "--bound", "16"), 0):
        "c107248ba7140dd40ff8ee63df2bb976d1eaeb85e030e2bbe7de023dbed6d7bc",
    ("pl", ("--size", "3", "--bound", "16"), 1):
        "d2851ed322a00c42ecf4a0789d0c5559b2fd251ee1f6a691d4e3d31133dc2aed",
    ("wreath-tower", ("--samples", "200"), 0):
        "3ac18e1532124ffef35ac1055aed32057fb3d997013fa141444cd525e2b51fda",
    ("wreath-tower", ("--samples", "200"), 1):
        "443925b51e1a39bca1856d4f68cbf66d819899cd0ef039cdb8d5c3f4b38f018b",
}

# (family, size) -> digest of the text report.
TEXT_DIGESTS = {
    ("perm", 3): "16fd82bda543254e33fe3a055b4e216b996559598ad033a640239866512a4055",
    ("sl", 3): "659e7b0a32198e927a2962396a0cf57b4686dc4cc6dafd7b25e81f19c66684f2",
    ("braid", 3): "60164e98a2445136a5a0e801cebea96e1e3eba5b14ec55e6a7121a5368f85bee",
    ("pl", None): "79891769d503873bd8c87b3c69db93e099e54c212b5abf82faba48dd4f02a23f",
    ("wreath-tower", None): "801c1350ec59f4c33d52ec7b9568728c3c7a644b7219b7a7f2b44571ad8ab278",
}

# (samples, seed, format) -> digest of the wreath-tower report: runs that the
# tables above miss.
WREATH_TOWER_DIGESTS = {
    (200, 7, "json"): "3079a7e8eb63fe81e7fed375bd1e45ccea96f9fd69d218e9b554b278e19bbe59",
    (1, 0, "json"): "4f2873bd9173092bb5d5dbd478698c37edf0f9a47b0b900adeb09dbdee05e920",
    (200, 0, "text"): "78d898033efb7e0f99e7ceedd4c7e3505ab6a9ec2359e39b8304b94341b58f9e",
}


def _report_digest(tmp_path, family, size, extra=(), seed=0, fmt="json"):
    out = tmp_path / "report.out"
    args = ["run", "--family", family, "--seed", str(seed), "--format", fmt,
            "--out", str(out), *extra]
    if size is not None:
        args += ["--size", str(size)]
    assert cli.main(args) == cli.EXIT_OK
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("family", sorted(SIZE_6_DIGESTS))
def test_matrix_family_size_6_report_is_golden(family, tmp_path):
    assert _report_digest(tmp_path, family, 6) == SIZE_6_DIGESTS[family]


@pytest.mark.parametrize("family", sorted(SIZE_8_DIGESTS))
def test_matrix_family_size_8_report_is_golden(family, tmp_path):
    assert _report_digest(tmp_path, family, 8) == SIZE_8_DIGESTS[family]


@pytest.mark.parametrize("family,size", sorted(SMALL_DIGESTS, key=str))
def test_small_report_is_golden(family, size, tmp_path):
    assert _report_digest(tmp_path, family, size) == SMALL_DIGESTS[(family, size)]


@pytest.mark.parametrize("family,size", sorted(ODD_MATRIX_DIGESTS, key=str))
def test_odd_matrix_report_is_golden(family, size, tmp_path):
    assert _report_digest(tmp_path, family, size) == ODD_MATRIX_DIGESTS[(family, size)]


@pytest.mark.parametrize("family,size", sorted(STABLE_DIGESTS, key=str))
def test_stable_report_is_golden(family, size, tmp_path):
    assert _report_digest(tmp_path, family, size) == STABLE_DIGESTS[(family, size)]


@pytest.mark.parametrize("family,extra,seed", sorted(RATIONAL_DIGESTS, key=str))
def test_rational_report_is_golden(family, extra, seed, tmp_path):
    assert (_report_digest(tmp_path, family, None, extra, seed)
            == RATIONAL_DIGESTS[(family, extra, seed)])


@pytest.mark.parametrize("family,size", sorted(TEXT_DIGESTS, key=str))
def test_text_report_is_golden(family, size, tmp_path):
    assert _report_digest(tmp_path, family, size, fmt="text") == TEXT_DIGESTS[(family, size)]


@pytest.mark.parametrize("samples,seed,fmt", sorted(WREATH_TOWER_DIGESTS))
def test_wreath_tower_report_is_golden(samples, seed, fmt, tmp_path):
    assert (_report_digest(tmp_path, "wreath-tower", None, ("--samples", str(samples)), seed,
                           fmt) == WREATH_TOWER_DIGESTS[(samples, seed, fmt)])
