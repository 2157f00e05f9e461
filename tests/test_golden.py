"""Golden outputs of the fixture commands: exit codes and output bytes are pinned.

Each command runs in-process from the repository root with
``-w fixtures/workspace.json`` (the path is part of ``report.json``), and every
file it writes is compared by SHA-256 with the value recorded for it.  A change
that alters a verdict, a witness or a report byte fails here.
"""

import contextlib
import hashlib
import io
import os

import pytest

from sepcat.cli import run

ROOT = os.path.join(os.path.dirname(__file__), "..")

# (command line, exit code, {output file: SHA-256})
GOLDEN = [
    ("validate", 0, {
        "grpmonad_z2_q.witness.json":
            "07f9e34c57039adf5230eb28c9fb7ec55cc647f0b6b0bf1ca107e37e1a637e4d",
        "report.json":
            "e7549122c157403d419ae7605012f2e9b3510cbf82062b0fba4bc389d3f2599b",
    }),
    ("separability grpmonad_z2_q --target monad", 0, {
        "grpmonad_z2_q.witness.json":
            "07f9e34c57039adf5230eb28c9fb7ec55cc647f0b6b0bf1ca107e37e1a637e4d",
        "report.json":
            "b4dc232bea95ac789510b6f5064b6aadc825eed9878a00eb1c3ad95dfb2c0708",
    }),
    ("separability grpmonad_z2_f2 --target monad", 1, {
        "report.json":
            "5bcf50e80222bdae73e9528eaec8eb9ed17df6e5b1d37a03691ddb3d7defb751",
    }),
    ("adjunction-check adj_swap_q", 0, {
        "report.json":
            "1815b215cedbfa9efedde607105be14f94b22f89658cc1dfd59fc5f6c825b7a1",
    }),
    ("--complete-target em-report adj_z2_q", 0, {
        "report.json":
            "ab440cb03cc01b61c351de616ec6b8c738e4f495d6c0f0f7983a17b88dd8af90",
    }),
    ("equivariant-report triv_z2_q", 0, {
        "report.json":
            "4f6c51981c2b90f7c779bd46b4cd20172e51c04d376b02311cfedc5c7288d020",
    }),
    ("complex-report triv_z2_q", 0, {
        "report.json":
            "546b09a96fdb6f624b7de4b41a8d1764314b2b1f90ea98b9b863f01836eedf34",
    }),
    ("separability grpmonad_z3_q --target monad", 0, {
        "grpmonad_z3_q.witness.json":
            "05771f80ed702edec6e3aaab2d535e51ae17215f204b5ab86e40fb6c8106a2ff",
        "report.json":
            "5e29dda6e0c9818d39f7d870e986510c6338411a261b0c304033f78e5dcce235",
    }),
    ("separability grpmonad_s3_q --target monad", 0, {
        "grpmonad_s3_q.witness.json":
            "970cf43901a6a18876780622964c4775bfe69ab42ae689e7c776295215986614",
        "report.json":
            "0d07e91350ed6b331e7afc41b9114898c4ede842923ac375f979f72e0ca2d708",
    }),
    ("separability grpmonad_swap_q --target monad", 0, {
        "grpmonad_swap_q.witness.json":
            "255a004c1c39aa2336bff30af6df18d459c1a7f1b6604dd51b503f2a4b10eeb5",
        "report.json":
            "4276654b3a251e379cc9e5da50e48a61f91ca476bd56bc59b2a7d9de4a3865c0",
    }),
    ("separability grpmonad_z3_f3 --target monad", 1, {
        "report.json":
            "8b3d0ba765539178711fd481e2a673c3746657b6434de2c0dd38d9261f4212ca",
    }),
    ("separability id_c1q", 0, {
        "id_c1q.witness.json":
            "fe99666ce816317ea45bc6b20cb53962a62473c41bf1e699aee7837d16e69c5e",
        "report.json":
            "e41dfab861a1b57e0145d2b8b695f5e6adfc68859eec472b5cfc789677984452",
    }),
    ("separability swap_g", 0, {
        "report.json":
            "d4708ed9f5b439b1899145730179f6923806df51d02b5acebfb1140323ce3b0b",
        "swap_g.witness.json":
            "4ba8de5af5f85b5ad4cab31b00f94f923d246a28e04a237f6bc9756dbc66441c",
    }),
    ("separability forget_z2_q", 0, {
        "forget_z2_q.witness.json":
            "d87fed427851232a06d981a23e23489ceac63ff514976b3c03ca4ecf006ca9f9",
        "report.json":
            "165d2f9260543d1bbf80405dc73ad3632ed294ce0b0fca2ba5a3671a06d1640d",
    }),
    ("separability forget_z2_f2", 1, {
        "report.json":
            "9d463b2e9a2eb8fe383e27027d71c09777b86064af3f460577cd65669c874359",
    }),
    ("adjunction-check adj_z2_q", 0, {
        "report.json":
            "474b3afeb550bbf3b48063385435695e33ccb50bff7fb9cab58d9c7ba5789b38",
    }),
    ("adjunction-check adj_z3_q", 0, {
        "report.json":
            "6b338c97276230cb8dfb468801938dfe7c73a736901919abdd4e3aed9115d785",
    }),
    ("adjunction-check adj_s3_q", 0, {
        "report.json":
            "28aec7bc3bdb8c4e1ab3c7b1de2a1bcc6ee875ee4762ad721f2e1543be290158",
    }),
    ("adjunction-check adj_z3_c3q", 0, {
        "report.json":
            "d3973cc7c22d72439af9aa3674d6cc4d1d6a591bd8b5f67601e0fc578ac72db5",
    }),
    ("adjunction-check adj_z2_f2", 0, {
        "report.json":
            "465757496e6a1e5b8a930ce996924b9f385aaa56ca6d02006ea902abbe55791c",
    }),
]


@pytest.mark.parametrize("command,code,files", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_fixture_command_output_is_pinned(command, code, files, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    with contextlib.redirect_stdout(io.StringIO()):
        got = run(["-w", "fixtures/workspace.json", "--out", str(tmp_path)] + command.split())
    assert got == code
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == files
