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
rendered sample details.

Every pin but the braid and wreath-tower ones was re-taken when a passing
commutation record began to write "e" as its lhs instead of its family's
identity: every matrix pin and every perm, aut-free, iet, closure and pl
pin, JSON and text.  Braid's identity already rendered "e", and
wreath-tower makes no commutation record, so their pins were not re-taken.
``RESTORED_DIGESTS`` holds the pins as they were before, and
``test_restored_pass_lhs_gives_back_the_old_bytes`` gets them back by
writing the identity for each pass again.  The ``pl`` size-4 pin was
dropped then, because pl's size domain became 1..3.

The closure pins, in ``SMALL_DIGESTS`` and ``RESTORED_DIGESTS``, were
re-taken when the closure battery began to run the engine on each H
embedded in the wreath product: the report grew from 14 to 23 checks with
the p = -1 records, and its records took the engine's names
``[h1, ^(t^1) h2]`` and ``[h1, t^2]``.

``NEIGHBOUR_DIGESTS`` and ``IN_PROCESS_DIGESTS`` were taken from the code
before the engine built each conjugate ^(t^p) h_j from its neighbour
^(t^(p-1)) h_j and ``TowerHom`` multiplied each distinct tuple of factors
once: ``pl`` at size 3 and bound 64, the failing Z-mode pl battery of
``tests/test_core.py`` at bound 12, whose failing records render
commutators built from those conjugates, and ``check_hom`` at depth 3 on
both shipped chains, which the CLI does not reach.  Their passing records
wrote "e" already, so they are not in ``PINS``.

``KERNEL_DIGESTS`` (``braid`` at sizes 8, 12 and 16, ``perm`` at sizes 64
and 256) were taken from the code before ``braid._dynnikov`` became
straight-line code and ``perm.compose`` a merge with no sort.  They pin
the long braid words and the 512-point permutation supports that the
smaller pins never reach; their passing records wrote "e" already, so
they are not in ``PINS``.  A kernel or engine change that alters any
check, rendering or verdict shows up here.
"""

import hashlib
import json

import pytest

from ccckit import cli, core, suites, wreath
from ccckit import plhomeo as pl

SIZE_6_DIGESTS = {
    "gl": "5b63daef5ee5fb907d50d89d3c7124d30672e88857f985e1c1261cab35895a8e",
    "sl": "73446cd87ee4c3744f1be0374518b58b5ef48b964bdd7df89846430fb6241972",
    "e": "989d87c7fc263eaa2fefeb805412e40da8ed25bb50f4aeceeac1c97d3c1266d5",
    "sp": "927ec3e143eb8cef41e73f09bb8b2ebdb82a81b256438baae375b49078706524",
    "onn": "dd427d6a5368f8440671859749a0e3dfceca9c1dca2ad742ebd7d7b672585a8d",
}

SIZE_8_DIGESTS = {
    "gl": "99a3138e50c99749ee57ec1d4e4eba28d7eaaff5d58c04557dabae8c8356b01f",
    "sl": "a960e4921465e9e8d84f9606befb8a0f3f67171b6b190e31b7c245530c7ed3e6",
    "e": "da25f32e65cb4445a1bb45169781b733b042072c451d0fe1c8189a0909d85619",
    "sp": "3f61c56a751edc5204e4ef04bdd773e300598af22b7031a29ebcda58ce43648d",
    "onn": "defb1986c8b7e2a2dc443a26e583511ce7e1718c00bba5dd733b271b3c9c9544",
}

# (family, size) -> digest; size None runs the family at its defaults.
SMALL_DIGESTS = {
    ("aut-free", 2): "208bccd01e5971090909ab59285e3f0a805ec80cd16dddc68476ed24bbe2ca37",
    ("aut-free", 4): "216100eb5f71320887d8cce8643162d159601ebc2289368cbd46c4794544fa67",
    ("braid", 2): "86c4edf0df47961016725b38d1c3d91429ed69a82c7d54eb34c428eaf189d152",
    ("braid", 3): "a947762431aff5cbc3b706feb628ff2157ffe7dfb8d00e96c42752a2bcd14db3",
    ("braid", 4): "2598c4ff0942aeba750e4e4eedfebdbf5bf7592b7d720378ef0845230c85296d",
    ("braid", 5): "2f6182646d879f32144f28a70e47669e59495fc49de8ee7317811d702c6fe959",
    ("closure", 2): "7d5b44c2a2ecf87f0bc129b3b02dbb48fd83fe9c5ece6f3fafb667979b76c772",
    ("e", 2): "4dd03a97cf080390b401c510165b493e31d85786ece934cc3789bc86f23c6048",
    ("e", 4): "5b3f29a3cc98432742f4c7c3609d1f60133d46304ce958c23a2064b740798047",
    ("gl", 2): "f070a4c3f85b7158aa4c7016d8a459a9b5acc9583f1fd4a7e5dca80aedb7316b",
    ("gl", 4): "7cd64c4013bdc353de228b87e6046ddb7b27008f7f93a28d67b52165cef27548",
    ("iet", 2): "90ee561ac9edec148483f99f58d17af63d3dafee194bc6fa30c1e69ed14deb5c",
    ("iet", 4): "e5fecd1dbcb67fe00e9ddd2bcda709369c368fdd7251d3b4ae076ab6e149b6bb",
    ("onn", 2): "05318b28c5b3efa36fbef618b80c19ba148ef9e897e60c03d23210599d7e2560",
    ("onn", 4): "69f0c5d8efc5b4f0e4a186a8bf4be1ce3de20473e455e55070e26a5474478bde",
    ("perm", 2): "d1c194daabe4b16c6025fbb5fcaf8dd7fd0d4bc3a0103a2fe98cbb29e09dacfc",
    ("perm", 4): "40263c0de9dd2ea1af6a51576e8c60d6b42c01120059153beb6ac5981cf17a8b",
    ("pl", 2): "2a889d1e3a6d935409e24d118219ebb5d4df94e9a79449ff912758b13051f28d",
    ("sl", 2): "c9a4b2231fa5537eb3388696d30c151eb2e0ae380c7c86167d2b71f0aaa52508",
    ("sl", 4): "d4fe8e6cb6f6cbe242bc6f6715b8dfc4e53864f3ff3c87414ca50e56dae2ce9f",
    ("sp", 2): "3191b4d68558d68f08f9332cb46e494dd212fd3653d39d33728eedf6d5bb0ff3",
    ("sp", 4): "92b2c2c0165ee7c62ee821ebb670f590a02c4a076c17029b0a6efa4a3a3f298f",
    ("wreath-tower", None): "55b6faf0e0bad0f5ca0677f11e0b72fa1f1b43358f0d9a3b7d8bf1b33d55a701",
}

# (family, size) -> digest at the odd sizes, where the witness needs one
# stabilization step.
ODD_MATRIX_DIGESTS = {
    ("gl", 1): "308aa3b4ae9a15f5ef3a439d56d62bec653411d32f1be937752a506c4eca84ec",
    ("sp", 1): "3ffcc3e1726a49f4beccc4a6f22e80087f9e9d8fea8e38a07945e491344e0455",
    ("onn", 1): "ba561ac7cd06c845aaa0a0963ee29262f03302304c51b19f177425e227fe00b2",
    ("gl", 3): "77783270067c7cd8a22aeb85723ddf5900e01ddd76cf29243a2ca87af68aaf18",
    ("sl", 3): "c3249b847d5def696c5318180cd4f10bc0946f6eceb9c5b8f66512cb66591390",
    ("e", 3): "810a007b4c905449f6d8a02c58a9d0a9fa3314694dfa659a698322c3c9126d5c",
    ("sp", 3): "ba5da90c1a4581b5c51fc0cbe938b50dfbb84af3c630b5e35c88a6e104734931",
    ("onn", 3): "27c8d364b939dc26978b43d5e20b33bd88d1c7b654c7c6c4a2459f3bd9aee534",
    ("gl", 5): "fa31363e1e9a4cebf1ea56941152b3572a7a4be80980d996fb37e17b7b82108f",
    ("sl", 5): "4272bd47401b26f7759deae14f8f2ec135cca11147cdcfd810f9b6d483a0d786",
    ("e", 5): "dc80c64e7e16f7f4b140187c906e3b14690eeab750b56aff313dba70940fc98f",
    ("sp", 5): "2ededa50837ab78f4c0a1c6aa856550524abff0feea5dde55174dd243bceee9b",
    ("onn", 5): "dc3c3415ffcdd1ab78785f0b1d1e89c6be853dae3ab5dba8206e8e2182d71984",
}

# (family, size) -> digest for branches of the stable batteries that the
# tables above miss.
STABLE_DIGESTS = {
    ("perm", 3): "8ef879dc59803cccb381a235a95cee305f304dfbf9317823154b4a202559985e",
    ("aut-free", 1): "8b068811a3bccb4234a41f6b14cc4c40fb592dede637f5d884be7d69f94afeaf",
    ("iet", 1): "3b7c8094c5361ad0bcfee9e3dcb9241ac29e21a8903225bebba844af035ddcd9",
    ("iet", 3): "d75f3fc93e01f811810b9a275ede4db4f377b7192e9032519d4dbb71092785e7",
    ("braid", 6): "f3312942ed04c30e16be1ce061b7ba57e6677423bf561d27c42d2e4bc9cf07a7",
}

# (family, extra arguments, seed) -> digest: jobs of the rational workload
# that the defaults above do not cover.
RATIONAL_DIGESTS = {
    ("pl", ("--size", "3", "--bound", "16"), 0):
        "587ad2a2a35dc0c435782e1942123f8e13032763a767c1db254f6bb699becce0",
    ("pl", ("--size", "3", "--bound", "16"), 1):
        "b94e6a7f0fc5221f6d5b8d26a763a3f4f6d18607130385bf4492129465b0962b",
    ("wreath-tower", ("--samples", "200"), 0):
        "3ac18e1532124ffef35ac1055aed32057fb3d997013fa141444cd525e2b51fda",
    ("wreath-tower", ("--samples", "200"), 1):
        "443925b51e1a39bca1856d4f68cbf66d819899cd0ef039cdb8d5c3f4b38f018b",
}

# (family, size) -> digest of the text report.
TEXT_DIGESTS = {
    ("perm", 3): "5be05b9d628ef793f2b0eb0a815cebe97c081f0dfacb2064d2ee02e2e8de3f64",
    ("sl", 3): "7ca4514807bc0c3a571173b2ae8f496a74067fbc43ee9a8ee5ac4320ad733602",
    ("braid", 3): "60164e98a2445136a5a0e801cebea96e1e3eba5b14ec55e6a7121a5368f85bee",
    ("pl", None): "6c679605e085f41a93b22f4c37646867c54cd69fd6a60f743612935efa030206",
    ("wreath-tower", None): "801c1350ec59f4c33d52ec7b9568728c3c7a644b7219b7a7f2b44571ad8ab278",
}

# (samples, seed, format) -> digest of the wreath-tower report: runs that the
# tables above miss.
WREATH_TOWER_DIGESTS = {
    (200, 7, "json"): "3079a7e8eb63fe81e7fed375bd1e45ccea96f9fd69d218e9b554b278e19bbe59",
    (1, 0, "json"): "4f2873bd9173092bb5d5dbd478698c37edf0f9a47b0b900adeb09dbdee05e920",
    (200, 0, "text"): "78d898033efb7e0f99e7ceedd4c7e3505ab6a9ec2359e39b8304b94341b58f9e",
}


# (family, extra arguments, seed) -> digest of the JSON report.
NEIGHBOUR_DIGESTS = {
    ("pl", ("--size", "3", "--bound", "64"), 0):
        "692895dc3f66301d7797ae1db5b93d3e5474105d21a6b3a93083e5c6a745b641",
}


# (family, size) -> digest at the sizes where the words and kernels are
# largest.
KERNEL_DIGESTS = {
    ("braid", 8): "ff2ab33ea33588ba7963e66c8da51fa907395eefeced877c1ee477496688170e",
    ("braid", 12): "b30103ea8503ed96b78f7d8c02abad49add96e8cf848a3dc032dd365cbb74ef8",
    ("braid", 16): "37d9dfe9319e826d7659879b218431a6dfdb7467bd591d4fdab79027190f6af4",
    ("perm", 64): "938cd59ace3297f73dcf0abd2904d9cac11f70eb4404b6f2f32221da3dbefb2b",
    ("perm", 256): "a1df46b598eace3aa3c1bfae7a9c81353f27fb183f872703d4072c7462b0cc0d",
}


def _pl_failing_czc():
    """The failing Z-mode pl battery: the witness bump on [1/8, 7/8] moves
    h2's support onto h1's for some p."""
    H = core.GeneratorSet(pl.PL, (pl.bump(4, 1, 2), pl.bump(8, 3, 6)))
    return core.verify_czc(H, core.Witness(pl.bump(8, 1, 7), core.ZMode(12)))


def _tower_hom_depth_3(chain):
    """check_hom of chain(3) on 200 samples with seed 0."""
    f = wreath.TowerHom(chain(3))
    return wreath.check_hom(f, f.tower.samples(200, 0))


# name -> (report builder, sha256 of json.dumps(report.to_dict(), sort_keys=True,
# indent=2)) for reports the CLI does not write.
IN_PROCESS_DIGESTS = {
    "pl-failing czc bound 12": (
        _pl_failing_czc, "bb201214f6e23ee2a0759b4dad16b2a5ff382db1d93802dcb2bf342ab1a7c361"),
    "iet tower-hom depth 3": (
        lambda: _tower_hom_depth_3(suites.iet_chain),
        "1dc540285aa9120cd606044c639b04b781e2810ad0a38efa092934a2bdc09297"),
    "perm tower-hom depth 3": (
        lambda: _tower_hom_depth_3(suites.perm_chain),
        "0c4500f8373423e1e63e72dc282cee07d7899ee50eac2967e9b81832290232cd"),
}

# Every pin above as (family, size, extra arguments, seed, format) -> digest.
PINS = {
    **{(f, 6, (), 0, "json"): d for f, d in SIZE_6_DIGESTS.items()},
    **{(f, 8, (), 0, "json"): d for f, d in SIZE_8_DIGESTS.items()},
    **{(f, s, (), 0, "json"): d
       for table in (SMALL_DIGESTS, ODD_MATRIX_DIGESTS, STABLE_DIGESTS)
       for (f, s), d in table.items()},
    **{(f, None, extra, seed, "json"): d for (f, extra, seed), d in RATIONAL_DIGESTS.items()},
    **{(f, s, (), 0, "text"): d for (f, s), d in TEXT_DIGESTS.items()},
    **{("wreath-tower", None, ("--samples", str(n)), seed, fmt): d
       for (n, seed, fmt), d in WREATH_TOWER_DIGESTS.items()},
}

# The pins as they stood while a passing commutation record wrote the
# family's identity as its lhs, for the reports whose bytes changed when it
# began to write "e".  Braid's identity renders "e" and wreath-tower makes
# no commutation record, so their pins are in PINS alone.
RESTORED_DIGESTS = {
    ("gl", 6, (), 0, "json"):
        "f41914b58451d14526065b51bbed79c8e4c99db023de29221fe153e344a5f025",
    ("sl", 6, (), 0, "json"):
        "4f966a25f72340e393a03ec31f84ccdd045ff9e1d6c4c25cf600b8d20f118663",
    ("e", 6, (), 0, "json"):
        "0582ddbf98f4a212f2eb9c5f0e1e1fb48cd27eba485898d086cda0fdc9e65970",
    ("sp", 6, (), 0, "json"):
        "9762a073d795064fef3e9334bacee802d7db9411e461be56997f4bba3da3fe96",
    ("onn", 6, (), 0, "json"):
        "9e110ab3d9564a4eca0a9574e79a76b85d8345524d3f6cf097d26ebec7b2ca88",
    ("gl", 8, (), 0, "json"):
        "13346090d499a96e3ce076794641231ec00363cb9bf2e2efb438fdfabae52ae5",
    ("sl", 8, (), 0, "json"):
        "c9d007d0322caaff10f5a665d24067910bbee3e9aa40d484dffc933e483c7c6a",
    ("e", 8, (), 0, "json"):
        "32f3ec77af927ee6153c55e6cd96d927eaed25d992d9dcd02a9d43dae6406c97",
    ("sp", 8, (), 0, "json"):
        "08eb4c9140f222efe53d03993f1a8bcf2857d75fe67504628d74a24324ccb70d",
    ("onn", 8, (), 0, "json"):
        "f3980ff88d6deb7bbb4ed7724d37c698fde7ac4b237f89803be81f9f7bfbec3e",
    ("aut-free", 2, (), 0, "json"):
        "0255f078f416d5aa0a6f32696f71a41862bfd44c8cf6d5e00c83bfb71f0e475a",
    ("aut-free", 4, (), 0, "json"):
        "304c615a30ede902b30eb6c9072511f2d8f4420857d806b582aecedc022296bd",
    ("closure", 2, (), 0, "json"):
        "4a8aa7a08010adf8cb92d418fdce47a0eb57f1a69e1f6b2c66e6923a7c74053c",
    ("e", 2, (), 0, "json"):
        "1452d70be83d7bcfd625c9d711f50baa705cb6887228d92ac5c484ecd42ca6ec",
    ("e", 4, (), 0, "json"):
        "498e100f8f11a4807824bafabf8f51313c78efc1a8623150d9337b8c77ab0fa7",
    ("gl", 2, (), 0, "json"):
        "9f89d9e90f35f49aae18d4ee54c8d0be874efc5c41f00fd3f68c8d83779d0bc2",
    ("gl", 4, (), 0, "json"):
        "c9f7a82697a1f21ec654eff9254b23fe8ec59aec1b8c4644e0c85bf37ac052a3",
    ("iet", 2, (), 0, "json"):
        "6750c2a2bdc8fe2c5c058d410506d8587148d879eaf8cce4f5593f0a10f22a5e",
    ("iet", 4, (), 0, "json"):
        "8561aa25720ad36e630701367590f872b08abc0030ed77190dbbd9d33d55339f",
    ("onn", 2, (), 0, "json"):
        "aaca1a39e3eb1dba42fe73321b3d6a3b580fe1dbd327ca37403131a94ead610a",
    ("onn", 4, (), 0, "json"):
        "e49127f16b20cb3184bace560d2c5ad32645138ccf9939dd014e276a8cf6d32a",
    ("perm", 2, (), 0, "json"):
        "ff0869df0f4340c986f9a26232c5d8aab919b5b465dc923ce5920406fd172b3b",
    ("perm", 4, (), 0, "json"):
        "fb789bca91ef310a707bca9ec043e4107717b132a921b2e2bd870e192833aee0",
    ("pl", 2, (), 0, "json"):
        "2faa117d1462767bd7a2a6e1c474cf9970cacc050ec3a246f2c44ebb9ee857dc",
    ("sl", 2, (), 0, "json"):
        "8b600d58ed114977894994ae8ed573c04d37f4866687bfafb5c2b16a5a49c7ce",
    ("sl", 4, (), 0, "json"):
        "24538b47daa8a28350c0bb5cb4411e9271c9fe2127310ad817c017bcb2c8b458",
    ("sp", 2, (), 0, "json"):
        "54e24be84a813e4352dc5eaaed99b05f7d845dfa2694fec8a983b900f5ff45ad",
    ("sp", 4, (), 0, "json"):
        "41137759b599b84293689dff553d002332749c9c54c2a970fe6b4d80b1aef9ce",
    ("gl", 1, (), 0, "json"):
        "5b799c78796d98174bc29fa1e924739d0d870d1cf3a2fdb27876e06fd3c1fc25",
    ("sp", 1, (), 0, "json"):
        "079a4b1a889faef230974d02ba5ede7832b6202ed609e4fd48eb1479a042a37e",
    ("onn", 1, (), 0, "json"):
        "5b0761f02d13ba8369f87464cf549b6d187e39cf7c63e63bd842accfdf076077",
    ("gl", 3, (), 0, "json"):
        "fcac447b3ed59df673335de200740cd0dd8880f42bfeccf434eaafbf2dfec023",
    ("sl", 3, (), 0, "json"):
        "b4a471eee75f8468bec41756b51f1229a728bf48ca7df2ede2be7853662d4e61",
    ("e", 3, (), 0, "json"):
        "f11469d387600a60ef8c7f9d3cac9008786b53fb647f484cd97929238d1d97e3",
    ("sp", 3, (), 0, "json"):
        "8425edf807c9fb4cd55962ba334765a4cbfcab84cd944e1a6af02946c0528480",
    ("onn", 3, (), 0, "json"):
        "b7fc67dbdd939cf83326cd371ac8b56cc2c0b00e8243c6ab7579cd058834c7ba",
    ("gl", 5, (), 0, "json"):
        "9773f2b147f4a3dd2f4210e3a50ab78e7bfecc3e7e24cdc26cd0e1c119a77ee0",
    ("sl", 5, (), 0, "json"):
        "5ae8cae89d300b0c162e99944143f8f8f9deffe2e7c7594762dcc959ee308c44",
    ("e", 5, (), 0, "json"):
        "b0c6a822f61e45c1d8afb427c0b37587549816ac3330e9498f6f001b7c730960",
    ("sp", 5, (), 0, "json"):
        "91b5e45b30e2832073b136e4d346103bcbc3d15a40310545fca5ba73ebf839fb",
    ("onn", 5, (), 0, "json"):
        "b9cd8f697d62a920e37358f06ed386d509aeb4473a53c3b0fd002957ae05ee92",
    ("perm", 3, (), 0, "json"):
        "7eb32e8ea1fd3d8aba4242a5ddcc7764e32a1df9877573a47377a81eb4e01d16",
    ("aut-free", 1, (), 0, "json"):
        "e56a08bff5956fdda46463dc0164d916b8997eadef1c8de85d8e506f4379a36d",
    ("iet", 1, (), 0, "json"):
        "ac3c2aee6f36192aa4aca9c93e45e06ab6ba1c74399be8bae95ea1ff681eeba5",
    ("iet", 3, (), 0, "json"):
        "a849003d31e6a2f6b340923e721097046214559766926e3fea2aaca20745cc8f",
    ("pl", None, ("--size", "3", "--bound", "16"), 0, "json"):
        "c107248ba7140dd40ff8ee63df2bb976d1eaeb85e030e2bbe7de023dbed6d7bc",
    ("pl", None, ("--size", "3", "--bound", "16"), 1, "json"):
        "d2851ed322a00c42ecf4a0789d0c5559b2fd251ee1f6a691d4e3d31133dc2aed",
    ("perm", 3, (), 0, "text"):
        "16fd82bda543254e33fe3a055b4e216b996559598ad033a640239866512a4055",
    ("sl", 3, (), 0, "text"):
        "659e7b0a32198e927a2962396a0cf57b4686dc4cc6dafd7b25e81f19c66684f2",
    ("pl", None, (), 0, "text"):
        "79891769d503873bd8c87b3c69db93e099e54c212b5abf82faba48dd4f02a23f",
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


@pytest.mark.parametrize("family,extra,seed", sorted(NEIGHBOUR_DIGESTS, key=str))
def test_neighbour_report_is_golden(family, extra, seed, tmp_path):
    assert (_report_digest(tmp_path, family, None, extra, seed)
            == NEIGHBOUR_DIGESTS[(family, extra, seed)])


@pytest.mark.parametrize("family,size", sorted(KERNEL_DIGESTS, key=str))
def test_kernel_report_is_golden(family, size, tmp_path):
    assert _report_digest(tmp_path, family, size) == KERNEL_DIGESTS[(family, size)]


@pytest.mark.parametrize("name", sorted(IN_PROCESS_DIGESTS))
def test_in_process_report_is_golden(name):
    build, digest = IN_PROCESS_DIGESTS[name]
    report = build()
    if name.startswith("pl-failing"):
        assert not report.passed
    else:
        assert report.passed and len(report.checks) == 3 * 200
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _restore_pass_lhs(monkeypatch):
    """Make every passing commutation record write its family's identity as
    its lhs again, as it did before a pass wrote "e"."""
    record = core.record_commutation

    def restored(family, report, *args, **kwargs):
        record(family, report, *args, **kwargs)
        check = report.checks[-1]
        if check["status"] == "pass":
            check["lhs"] = family.render(family.identity())

    monkeypatch.setattr(core, "record_commutation", restored)


@pytest.mark.parametrize("family,size,extra,seed,fmt", sorted(PINS, key=str),
                         ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_restored_pass_lhs_gives_back_the_old_bytes(family, size, extra, seed, fmt,
                                                      tmp_path, monkeypatch):
    """Writing "e" for a pass is the only change those pins record."""
    _restore_pass_lhs(monkeypatch)
    key = (family, size, extra, seed, fmt)
    assert (_report_digest(tmp_path, family, size, extra, seed, fmt)
            == RESTORED_DIGESTS.get(key, PINS[key]))
