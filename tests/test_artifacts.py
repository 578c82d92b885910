"""Pinned CLI artifacts: stdout must stay byte-identical.

Performance work on the exact layers (rank, `d`, field assembly, `cartan`)
must not change a single byte of these reports.  Each case is a CLI
invocation and the SHA-256 of its stdout (numpy 2.4, scipy 1.17, OpenBLAS,
x86-64).  The `verify` cases cover every field kind, with and without
`--integer-coeffs`, plus one field with i_X^2 != 0 under `--support all`
and one whose L_X has a Jordan block at 0 (seed 19), where the geometric
`betti` and the algebraic kernel that Euler-Poincare sums differ.  The
other commands are pinned once each, since `cartan` feeds every one of
them; `deform` once more with the adjoint field, whose Hermitian run takes
its own bracket and eigensolver.  A deliberate change to a report's format
or numbers must update this table.
"""

import hashlib

import pytest

from cartanflow.cli import main

PINNED = [
    ("verify --n 5 --m 8 --seed 3 --field adjoint",
     "0936d3eac25b18ce80a54daa908d143643beffd8cf03b667c4eee77025196240"),
    ("verify --n 6 --m 7 --seed 13 --field adjoint",
     "3495ba3c968d0ff29527188044b7f143339466b19f246d93be258d91b16290fe"),
    ("verify --n 5 --m 8 --seed 3 --field adjoint --integer-coeffs",
     "ce929e13c9d764089bb099d75657d16da47b7ac0b82edf5d78f88bf6246d320d"),
    ("verify --n 6 --m 7 --seed 13 --field adjoint --integer-coeffs",
     "6245e843fc74a3bea3b81ad64a6f0fcf9e2648c8bfa4e3ae2cff4b2ef46b3fb5"),
    ("verify --n 5 --m 8 --seed 3 --field zero",
     "d23ae7c4d23bfacbe15a0e9963feb745c1ba83adf430f4340aaa09c9f75a436b"),
    ("verify --n 6 --m 7 --seed 13 --field zero",
     "394bdba7d292086190c43ac34ed8f3778dc56fb81a8e9929076eb83a9d30c4f0"),
    ("verify --n 5 --m 8 --seed 3 --field zero --integer-coeffs",
     "d23ae7c4d23bfacbe15a0e9963feb745c1ba83adf430f4340aaa09c9f75a436b"),
    ("verify --n 6 --m 7 --seed 13 --field zero --integer-coeffs",
     "394bdba7d292086190c43ac34ed8f3778dc56fb81a8e9929076eb83a9d30c4f0"),
    ("verify --n 5 --m 8 --seed 3 --field deterministic",
     "0b6522704084af0a78718a21298a29eb7402e4244e300ac8d80887066d95a1c9"),
    ("verify --n 6 --m 7 --seed 13 --field deterministic",
     "3a97e032e53291bfb8e2d812da7ea6b4bfa0cade8acacdfcec8a9fff2e27451e"),
    ("verify --n 5 --m 8 --seed 3 --field deterministic --integer-coeffs",
     "a39bf9afd4bf8e8c03686db5457e6d5d573097b096719e96961943a492cb5c8d"),
    ("verify --n 6 --m 7 --seed 13 --field deterministic --integer-coeffs",
     "6892f75e7b76ce00904f6daa717ad3bf954bafac4323c6ff5e0323e8e1f3483e"),
    ("verify --n 5 --m 8 --seed 3 --field edge-random",
     "14f4d646eec8013622c759a1e9bb699412d7d5920c08cb251e6391ad62601f44"),
    ("verify --n 6 --m 7 --seed 13 --field edge-random",
     "569bacdc7a418e719312b1346c4c43114b4efc773b2412a883943a0d3bd64907"),
    ("verify --n 5 --m 8 --seed 3 --field edge-random --integer-coeffs",
     "0cb183cc88029731c5f0caaaaaef9a827022d9d36520791c3222e8a9d591bd93"),
    ("verify --n 6 --m 7 --seed 13 --field edge-random --integer-coeffs",
     "bb705f09f42b6246a7613141d135afbc860c790c719e937338bdf92802b3c0fb"),
    ("verify --n 5 --m 8 --seed 3 --field sparsified",
     "cca82363cf741902bc33b1f0a915ed0fe73bc45c044ead449250ac4f2c3c3b1e"),
    ("verify --n 6 --m 7 --seed 13 --field sparsified",
     "cc7abce84ed991e20b6e619012a3fb9eb3b8c1704138c64a3c5aa7a8e4ae1680"),
    ("verify --n 5 --m 8 --seed 3 --field sparsified --integer-coeffs",
     "3424475b0014f3cec154f7cee2845019135d76f3f47d957a04913ecf1e6e1f7d"),
    ("verify --n 6 --m 7 --seed 13 --field sparsified --integer-coeffs",
     "1f16da2da33f307735b3901af100df92dd6af64b6380cfd319cd10f03892cbf7"),
    ("verify --n 5 --m 8 --seed 3 --field sparsified --support all",
     "546741a628cabdaa3c75a4afeab16b4863c38bfb160739f1fd901d9c98c61f76"),
    ("verify --n 5 --m 8 --seed 19 --field sparsified",
     "10da950a024836661694e4e1cd502cc4bc7a1aa2714e1e693d511e251986f3c0"),
    ("evolve --n 6 --m 8 --seed 4 --field edge-random --steps 7",
     "17425c36e3d7af36b0f7ad8874140945d5562f42a1d4afdd05824bf3805153bc"),
    ("deform --n 6 --m 8 --seed 4 --field edge-random --steps 20",
     "06a39b61ace1faf33bea534af90166b1c1d3b41c181cdee6b51169712f193028"),
    ("deform --n 6 --m 8 --seed 4 --field sparsified --steps 20 --format json",
     "e281a70e444d3fa58f23a7f856cc238a627a70022c0ab761370fe951fa964002"),
    ("deform --n 6 --m 8 --seed 4 --field adjoint --steps 20 --format json",
     "b2b3e82eea51cddff77639f5d407f4066a085c2e5940d1bd7bd47b40e88e8e6d"),
    ("spectrum --n 6 --m 8 --seed 4 --field edge-random --support all",
     "b8b16949f731f52f9a6c3cd81a1e641c9128533c15ed9f4c839000b022068eda"),
    ("spectrum --n 6 --m 8 --seed 4 --field deterministic --format json",
     "55a8b7fccd71df531a3797aae793ca3414bb08c611a0e7b929d3b90420412d29"),
    ("operators --n 5 --m 6 --seed 4 --field edge-random --support all --integer-coeffs",
     "44822eecd2a3d9a633c6bdb756e262961883b8311f7db59208cae3254e5efcb9"),
    ("survey --trials 4 --n 6 --m 8 --seed 2 --field edge-random",
     "e9d89ee04c4ffa98d090df19b7c63b4a19a7689d66ea00995bc4c158ac5b0d1f"),
    ("survey --trials 4 --n 6 --m 8 --seed 5 --field sparsified --integer-coeffs",
     "6aaa686a49169c77c74a1ffaf89283acbb09a4fd03f525228ff865ce7cebae58"),
]


@pytest.mark.parametrize("argv, digest", PINNED, ids=[argv for argv, _ in PINNED])
def test_stdout_matches_pinned_digest(argv, digest, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
