"""Pinned CLI artifacts: stdout must stay byte-identical.

Performance work on the exact layers (rank, `d`, field assembly, `cartan`)
must not change a single byte of these reports.  Each case is a CLI
invocation and the SHA-256 of its stdout (numpy 2.4, scipy 1.17, OpenBLAS,
x86-64).  The `verify` cases cover every field kind, with and without
`--integer-coeffs`, plus one field with i_X^2 != 0 under `--support all`;
none has a Jordan block of L_X at 0, so they do not depend on how
Euler-Poincare counts kernels.  The other commands are pinned once each,
since `cartan` feeds every one of them.  A deliberate change to a report's
format or numbers must update this table.
"""

import hashlib

import pytest

from cartanflow.cli import main

PINNED = [
    ("verify --n 5 --m 8 --seed 3 --field adjoint",
     "92d7fd04f1b768cf47faaa7877a96e159a9861214e407086df08c457ce96a3e2"),
    ("verify --n 6 --m 7 --seed 13 --field adjoint",
     "558bb8c8f05ad5135ee43008e9a6b41cc03adc8b3fe04c29a1bb404360c7092f"),
    ("verify --n 5 --m 8 --seed 3 --field adjoint --integer-coeffs",
     "00dfae688d48129d5ad82b273f75b4db9ff10350e3c9ad9d543bc4493f61cb31"),
    ("verify --n 6 --m 7 --seed 13 --field adjoint --integer-coeffs",
     "5ea16c3ef25b9b82baefb6950224ed7ea2c20827155a79a68fa4b8499eaae689"),
    ("verify --n 5 --m 8 --seed 3 --field zero",
     "9618b7e9aa35225d8c63f4d0f4dc581c032e3356484e67f67ae4e1ba81fb822d"),
    ("verify --n 6 --m 7 --seed 13 --field zero",
     "52fb6cb487ff8cc11b0e1bf0241fae16dfde69e9cc7be2290d71774eed913ccc"),
    ("verify --n 5 --m 8 --seed 3 --field zero --integer-coeffs",
     "9618b7e9aa35225d8c63f4d0f4dc581c032e3356484e67f67ae4e1ba81fb822d"),
    ("verify --n 6 --m 7 --seed 13 --field zero --integer-coeffs",
     "52fb6cb487ff8cc11b0e1bf0241fae16dfde69e9cc7be2290d71774eed913ccc"),
    ("verify --n 5 --m 8 --seed 3 --field deterministic",
     "4c5b50ba86a37126c818081198f147cd848044c9845e28463cfd2275b0054c28"),
    ("verify --n 6 --m 7 --seed 13 --field deterministic",
     "5eac32f344fd1d76c9b390f2cc122db3daad501d97ff9a395d751500023af414"),
    ("verify --n 5 --m 8 --seed 3 --field deterministic --integer-coeffs",
     "f90f341e836e6026c11675ea20b2ca77239dbfc6da48f9587b2713b31c22da06"),
    ("verify --n 6 --m 7 --seed 13 --field deterministic --integer-coeffs",
     "7b1facee622297db2f298262e1f758d9ee132a1e50a800abb85f03fc2362c303"),
    ("verify --n 5 --m 8 --seed 3 --field edge-random",
     "ba0844f95284c559e15864a3290f34637cf6d7db5c7fa41243c2fe8a3d22935e"),
    ("verify --n 6 --m 7 --seed 13 --field edge-random",
     "809901e174b8947cfbf50f36a69d25e39e2d643263401551e78af3c504274635"),
    ("verify --n 5 --m 8 --seed 3 --field edge-random --integer-coeffs",
     "e2e35cf6ac692e0e2fb28ae9386e560d493cb75134a28aecadf9609860037bd2"),
    ("verify --n 6 --m 7 --seed 13 --field edge-random --integer-coeffs",
     "de5711131e5ba3f18a867fa295516821646dc6bc0a33967ea76952d9f5363bca"),
    ("verify --n 5 --m 8 --seed 3 --field sparsified",
     "ccbfca2c4ab99dd967a9d2af1fde8f606393ad478c1210a4e0a34737e033f2ba"),
    ("verify --n 6 --m 7 --seed 13 --field sparsified",
     "2ff9412c89638c6958e39c0c9fed9d7282514d83b379898142400802d9817d53"),
    ("verify --n 5 --m 8 --seed 3 --field sparsified --integer-coeffs",
     "44611bf19734d67445fbc0f75f69c7d269a024c3e4875d10b359a9886601a8a8"),
    ("verify --n 6 --m 7 --seed 13 --field sparsified --integer-coeffs",
     "ce2355988108c5f6afa6109b3c158d735af2d711fa008d11c11ebbe5bbb9b38d"),
    ("verify --n 5 --m 8 --seed 3 --field sparsified --support all",
     "d50a99c356582fd44fe4f48cf8ced3c3e3a0b535ba4acdc64721c92211a7c0e2"),
    ("evolve --n 6 --m 8 --seed 4 --field edge-random --steps 7",
     "17425c36e3d7af36b0f7ad8874140945d5562f42a1d4afdd05824bf3805153bc"),
    ("deform --n 6 --m 8 --seed 4 --field edge-random --steps 20",
     "06a39b61ace1faf33bea534af90166b1c1d3b41c181cdee6b51169712f193028"),
    ("deform --n 6 --m 8 --seed 4 --field sparsified --steps 20 --format json",
     "e281a70e444d3fa58f23a7f856cc238a627a70022c0ab761370fe951fa964002"),
    ("spectrum --n 6 --m 8 --seed 4 --field edge-random --support all",
     "b8b16949f731f52f9a6c3cd81a1e641c9128533c15ed9f4c839000b022068eda"),
    ("spectrum --n 6 --m 8 --seed 4 --field deterministic --format json",
     "55a8b7fccd71df531a3797aae793ca3414bb08c611a0e7b929d3b90420412d29"),
    ("operators --n 5 --m 6 --seed 4 --field edge-random --support all --integer-coeffs",
     "44822eecd2a3d9a633c6bdb756e262961883b8311f7db59208cae3254e5efcb9"),
    ("survey --trials 4 --n 6 --m 8 --seed 2 --field edge-random",
     "312585099cee177341f2b9a34ffad06fc2891828873ca4f9ad3b1bfde684a5d7"),
    ("survey --trials 4 --n 6 --m 8 --seed 5 --field sparsified --integer-coeffs",
     "c96a6073be2bb4049625262cc6bbbbf2a1d5f0721347b8dd343e8c2090982aec"),
]


@pytest.mark.parametrize("argv, digest", PINNED, ids=[argv for argv, _ in PINNED])
def test_stdout_matches_pinned_digest(argv, digest, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
