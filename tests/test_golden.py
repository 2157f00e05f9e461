"""Golden outputs of the fixture commands: exit codes and output bytes are pinned.

Each command runs in-process from the repository root with
``-w fixtures/workspace.json`` (the path is part of ``report.json``), and every
file it writes is compared by SHA-256 with the value recorded for it.  A change
that alters a verdict, a witness or a report byte fails here.  The two fixture
commands that take tens of seconds, ``--complete-target em-report adj_s3_q`` and
``complex-report triv_s3_q``, are pinned the same way by the CI workflow, each
in a fresh process; together the two places pin all 45 fixture commands.
The outcomes of the 40 separability decisions that the benchmark's sweep makes
are pinned here too, built through the public API.
"""

import contextlib
import hashlib
import io
import os

import pytest

from sepcat import (Field, FiniteGroup, GroupAction, Infeasible, MonadSepWitness,
                    equivariant_category, equivariant_monad, induce_adjunction,
                    monad_separability_solve, separability_solve, standard)
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
            "13c04bd46b5af5833306be668d4e034fbae6d44811f60ff56c6aee4ba260804c",
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
    ("em-report adj_z2_q", 0, {
        "report.json":
            "d8c07ba714c34ffa6f3f3796580532cc22f40a9e6259ec751a8881ec8627d314",
    }),
    ("em-report adj_z3_q", 0, {
        "report.json":
            "ffd7108fd760da248145bde00825e945a9a596d5228b81041af82177a0d44c54",
    }),
    ("em-report adj_s3_q", 0, {
        "report.json":
            "88d8cb186949fe0020c216a08fb3cb8228d3b9b52a00f75a56a7d2c3c1dc9caf",
    }),
    ("em-report adj_swap_q", 0, {
        "report.json":
            "1332bffca95ad91f90fab8568f8eeaf16766b5307c5d0c5dd20dae8946b0d969",
    }),
    ("em-report adj_z3_c3q", 0, {
        "report.json":
            "a57012ac4cee65c1914037923d3e8407ff2dffac27d29f6acde89e5e0f1c8969",
    }),
    ("em-report adj_z2_f2", 1, {
        "report.json":
            "ad9a2fe0e004723224d245dceb6d49f036d3fed55ae7d77c6aaff42845115e70",
    }),
    ("--complete-target em-report adj_z3_q", 0, {
        "report.json":
            "52d95c005fd6be22ff137af8ac3140b1ad30a5ec394d25d0afdbad27dbb9c670",
    }),
    ("--complete-target em-report adj_swap_q", 0, {
        "report.json":
            "202614d0d84660eb83a02d34f93fdb33b1724f7dc9156a57c88e39c6e59ffa54",
    }),
    ("--complete-target em-report adj_z3_c3q", 0, {
        "report.json":
            "91b19583f0d938af4dfd5846643d2282f24a4c7ea0b2ac05c3c920febcd1e8b8",
    }),
    ("--complete-target em-report adj_z2_f2", 1, {
        "report.json":
            "ad9a2fe0e004723224d245dceb6d49f036d3fed55ae7d77c6aaff42845115e70",
    }),
    ("equivariant-report triv_z3_q", 0, {
        "report.json":
            "19ffb9de15fd390d5cf792287beb409abba3a01f1a3dbe48b13acd6440b776e2",
    }),
    ("equivariant-report triv_s3_q", 0, {
        "report.json":
            "5288de44c04bb2400107ac2d3a2df02f266a5b3241dc1684c5d6eeec3cb90350",
    }),
    ("equivariant-report triv_z3_c3q", 0, {
        "report.json":
            "5e3aa03c5a6646d1015a120f5bac2df8ed44616f10efd7241f1a307b5fcee6ce",
    }),
    ("equivariant-report swap_z2_q", 0, {
        "report.json":
            "243110087982401b77d67f3019531f9d3092e6b48f32d2654223af1705133499",
    }),
    ("equivariant-report triv_z2_f2", 1, {
        "report.json":
            "c5d46761ca92922674639eb710a24d1c35152829642f3c639a3b1aa37bc7ff40",
    }),
    ("equivariant-report triv_z3_f3", 1, {
        "report.json":
            "41d3df513dadf3fe5f3913c3b7164020ded6b8537754805b804a4e2bb5fc1f9d",
    }),
    ("equivariant-report triv_z3_qw", 0, {
        "report.json":
            "a17cacc9e8d743f0cd75d9c783af37396053d70f5dd431ff89b590514af680c5",
    }),
    ("complex-report triv_z3_q", 0, {
        "report.json":
            "0d4f75267c548b76b8c853e49e18d8d5870fe32450a2c89c2894daca6f223adc",
    }),
    ("complex-report triv_z3_c3q", 0, {
        "report.json":
            "d78667a7ea82fede23f6818c84e51665a874f2a8ba97950c41a751f5904beb12",
    }),
    ("complex-report swap_z2_q", 0, {
        "report.json":
            "76c8462b74e67c8cc56fb168c4de615a9dc2e062333848d0290fa1170770faf1",
    }),
    ("complex-report triv_z2_f2", 1, {
        "report.json":
            "e94f63a02ee18d9c872cc1b8eeadc67a6150dcb367ed0787f43014d7173f430c",
    }),
    ("complex-report triv_z3_f3", 1, {
        "report.json":
            "2e6783d54de844d4a7ded51db7a93fabd3e7ebef0c817fc87f4d8607ba9cb015",
    }),
    ("complex-report triv_z3_qw", 0, {
        "report.json":
            "e8c488512ee674d185fd5903786f6493eb5e9e75eda3a072a911210ab719023d",
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


def _sweep_field(n, divides):
    """The smallest prime dividing n (divides) or not dividing it."""
    primes = (p for p in range(2, 100) if all(p % d for d in range(2, p)))
    return Field.prime(next(p for p in primes if (n % p == 0) == divides))


def _sweep_results():
    """The 40 separability decisions of the separability-sweep workload, in its order.

    Monads of Z/2..Z/7 and S_3 and functors of Z/2..Z/5 and S_3 acting trivially
    on the point, each over Q, over F_p with p ∤ |G| and with p | |G|; then each
    target for the Z/2 swap on two points and for Z/3 on Q(ω), over Q.
    """
    q = Field.rationals()

    def decide(target, action):
        if target == "monad":
            return monad_separability_solve(equivariant_monad(action))
        return separability_solve(induce_adjunction(equivariant_category(action)).G)

    for target, orders in (("monad", range(2, 8)), ("functor", range(2, 6))):
        groups = [(f"Z/{n}", FiniteGroup.cyclic(n)) for n in orders]
        for name, group in groups + [("S_3", FiniteGroup.symmetric(3))]:
            n = len(group.elements)
            for field in (q, _sweep_field(n, False), _sweep_field(n, True)):
                action = GroupAction.trivial(group, standard.point_category(field))
                yield f"{target} {name} over {field.spec_str()}", decide(target, action)
    z2 = FiniteGroup.cyclic(2)
    g = next(h for h in z2.elements if h != z2.unit)
    swap = {z2.unit: {"x": "x", "y": "y"}, g: {"x": "y", "y": "x"}}
    for target in ("monad", "functor"):
        action = GroupAction.from_permutation(z2, standard.two_point_category(q), swap)
        yield f"{target} Z/2 swap on C3 over Q", decide(target, action)
        action = GroupAction.trivial(FiniteGroup.cyclic(3), standard.cyclotomic_point_category(q))
        yield f"{target} Z/3 on Cw over Q", decide(target, action)


def _sweep_line(name, result):
    if isinstance(result, Infeasible):
        return (f"{name}: infeasible {result.rank} {result.rank_augmented} {result.n_vars}"
                f" {result.subsystem}")
    if isinstance(result, MonadSepWitness):
        comps = result.sigma.components
        coords = [comps[x].coords() for x in sorted(comps)]
    else:
        coords = [result.maps[key] for key in sorted(result.maps)]
    return f"{name}: {coords!r}"


# The sweep's witnesses and certificates, pinned by SHA-256: the solvers may be
# rewritten, but their outcomes may not move.
SWEEP_SHA256 = "d7e364c1da2e932d703d8cac56ac2895aa33e38465eaddb00c059ce4d8637e82"


def test_sweep_outcomes_are_pinned():
    lines = [_sweep_line(name, result) for name, result in _sweep_results()]
    assert len(lines) == 40
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SWEEP_SHA256
