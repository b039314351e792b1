"""Golden reports: the JSON report of a battery, byte for byte.

Each digest is the sha256 of the bytes ``ccckit run --family F --size S
--seed 0 --format json`` writes, taken once from the code before the
matrix kernels were rewritten (adjugate inverse, triple-loop product).  A
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


@pytest.mark.parametrize("family", sorted(SIZE_6_DIGESTS))
def test_matrix_family_size_6_report_is_golden(family, tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["run", "--family", family, "--size", "6", "--seed", "0",
                     "--format", "json", "--out", str(out)])
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIZE_6_DIGESTS[family]
