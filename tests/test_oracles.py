"""The oracle module stays independent of the kernels it checks.

tests/oracles.py holds the second path of each computation.  An oracle that
reached into a kernel's private helpers would share the code it is meant to
check, so it may take from `wavereg` only public names and the private ones
listed below, each with the reason it is needed.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"

ALLOWED_PRIVATE = {
    "wavereg.model._require_law":
        "rhs_full applies the library's one rule on which laws the modified system admits",
    "wavereg.normalform._phases":
        "the frame phases exp(+-it/eps) are one closed form; oscillate applies them to a State",
    "wavereg.normalform._reduced_forcing":
        "reduced_rhs wraps the kernel; the tests hold it to the pullback of rhs_full",
    "wavereg.jets_ibp._jets":
        "ode_jet takes the kernel's levels, and JetSequence re-checks each by the literal sum",
}


def names_taken_from_wavereg(tree):
    """Every `wavereg` name an import in the tree binds, as 'module.name'."""
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            taken += [alias.name for alias in node.names
                      if alias.name.split(".")[0] == "wavereg"]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "wavereg"):
            taken += [f"{node.module}.{alias.name}" for alias in node.names]
    return taken


def test_oracles_take_only_public_names_and_the_allowlist():
    tree = ast.parse(ORACLES.read_text())
    taken = names_taken_from_wavereg(tree)
    private = [name for name in taken
               if any(part.startswith("_") for part in name.split("."))]
    assert [name for name in private if name not in ALLOWED_PRIVATE] == []
    # every allowance is still in use, so the list does not outlive its reasons
    assert sorted(private) == sorted(ALLOWED_PRIVATE)
    # nor may an oracle reach a private helper as a module attribute
    attributes = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    assert [a for a in attributes if a.startswith("_") and not a.startswith("__")] == []
