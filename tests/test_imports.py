"""What the package imports, and when.

No module imports a name it never uses; the package root is exempt, as it
binds the public names.  A cold command loads only the modules it runs,
and none of the machinery of dataclass generation.  The first read of a
package attribute binds every public name, as an eager import did.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import laurentgerms
import laurentgerms.errors as errors

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "laurentgerms"


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that nothing reads.

    A quoted annotation such as ``"Node"`` or ``list["Node"]`` reads the
    names in it.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = _names(tree)
    for node in ast.walk(tree):
        hints = (getattr(node, "annotation", None),
                 getattr(node, "returns", None))
        for part in (p for h in hints if h is not None for p in ast.walk(h)):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used |= _names(ast.parse(part.value))
    return [name for name in imported if name not in used]


def _names(tree) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_a_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import json\n"
              "from .exact import Mat, Polynomial, Vec, mat\n"
              "def f(p: 'Polynomial', m: list['Mat']) -> 'Vec':\n"
              "    return json.dumps(p)\n")
    assert unused_imports(source) == ["mat"]


def _fresh(script: str, *args: str) -> str:
    """The stderr of ``script`` run with ``args`` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          check=True, capture_output=True, text=True).stderr


# the argv of a command ("" imports the package alone) and the modules of
# the package it loads, cli aside; @name stands for an input file
BASE = {"errors", "exact", "germs", "exprio"}
COLD = [
    ("", {"errors"}),
    ("decompose 1/(x1*(x1+x2))", BASE),
    ("verify 1/(x1*x2) 1/(x2*x1)", BASE),
    ("project-plus (x1+1)/x1", BASE | {"residues"}),
    ("project-minus (x1+1)/x1", BASE | {"residues"}),
    ("grade 1/(x1*(x1+x2))", BASE | {"residues"}),
    ("jk 1/(x1*x2)", BASE | {"residues"}),
    ("brion-vergne 1/(x1*x2) --arrangement @delta", BASE | {"residues"}),
    ("coproduct x2/(x1*(x1+x2))", BASE | {"residues"}),
    ("laurent 1/(x1*(x1+x2))", BASE | {"cones", "expand"}),
    ("p-order 1/(x1*(x1+x2))", BASE | {"residues", "cones", "expand"}),
    ("p-res 1/(x1*(x1+x2))", BASE | {"residues", "cones", "expand"}),
    ("cone refine @family", BASE | {"cones"}),
    ("cone check @family", BASE | {"cones"}),
    ("exp-sum --cone @orthant", BASE | {"cones", "latticeexp"}),
]
INPUTS = {"delta": [[1, 0], [0, 1]],
          "family": [[[1, 0], [0, 1]], [[1, 0], [1, 1]]],
          "orthant": [[1, 0], [0, 1]]}
COLD_SCRIPT = ("import sys\n"
               "before = set(sys.modules)\n"
               "import laurentgerms\n"
               "if sys.argv[1:]:\n"
               "    from laurentgerms.cli import main\n"
               "    assert main(sys.argv[1:]) == 0\n"
               "print(*sorted(set(sys.modules) - before), file=sys.stderr)\n")


@pytest.mark.parametrize("command, modules", COLD,
                         ids=["-".join(c.split()[:1 + c.startswith("cone")])
                              or "import" for c, _ in COLD])
def test_a_cold_command_loads_only_the_modules_it_runs(command, modules,
                                                       tmp_path):
    argv = []
    for arg in command.split():
        if arg.startswith("@"):
            path = tmp_path / f"{arg[1:]}.json"
            path.write_text(json.dumps(INPUTS[arg[1:]]))
            arg = str(path)
        argv.append(arg)
    loaded = _fresh(COLD_SCRIPT, *argv).split()
    package = {m.removeprefix("laurentgerms.") for m in loaded
               if m.startswith("laurentgerms.")} - {"cli"}
    assert package == modules
    assert "dataclasses" not in loaded and "inspect" not in loaded


# the names the package bound eagerly, by home module, beside those of errors
EXPORTS = {
    "exact": "AmbientSpace Polynomial frac linear_factorization "
             "q_orthogonal_complement span_key",
    "germs": "GermSum MeromorphicGerm PolarGerm as_mero canonicalize_polar "
             "decompose evaluate germ_equal make_germ_sum make_mero mero_add "
             "mero_mul mero_neg mero_scale mero_sub numerator_is_orthogonal "
             "reduce_to_independent",
    "cones": "ConeFamily I_cone I_simplicial PolyCone SimplicialCone "
             "common_refinement cone_contains cones_meet_along_face "
             "is_properly_positioned is_subdivision make_poly_cone "
             "make_simplicial_cone positioning_witness triangulate_cone "
             "union_contains_line",
    "expand": "DecoratedCone FormalExpansion delta_op expansion_add "
              "expansion_neg expansion_scale kernel_generators laurent_expand "
              "make_expansion phi subdivision_operator",
    "residues": "Arrangement CoproductTerm GradedComponentKey "
                "brion_vergne_split coproduct graded_split jk_residue "
                "make_arrangement p_order p_res pi_minus pi_plus project_U_p",
    "latticeexp": "DEFAULT_TRUNCATION LatticeCone TruncatedGerm "
                  "bernoulli_tail_coeffs evaluate_truncated exp_integral "
                  "exp_sum_smooth is_smooth lattice_sum_numeric "
                  "make_lattice_cone p_res_exp_sum smooth_subdivide_2d",
    "exprio": "deserialize from_json load_cone_family load_rows parse_expr "
              "parse_germ serialize to_germ to_json",
}
HOMES = {name: module for module, names in EXPORTS.items()
         for name in names.split()}
HOMES.update((name, "errors") for name in vars(errors)
             if not name.startswith("_"))


def test_every_public_name_resolves_to_its_home_module():
    for name, module in HOMES.items():
        home = getattr(laurentgerms, module)
        assert getattr(laurentgerms, name) is getattr(home, name), name
    assert set(HOMES) | set(EXPORTS) <= set(dir(laurentgerms))


def test_a_star_import_in_a_new_interpreter_binds_every_public_name():
    script = ("import sys\n"
              "namespace = {}\n"
              "exec('from laurentgerms import *', namespace)\n"
              "print(*namespace, file=sys.stderr)\n")
    bound = set(_fresh(script).split())
    assert set(HOMES) | set(EXPORTS) | {"errors"} <= bound


def test_the_package_binds_each_modules_all_and_nothing_else():
    declared = set()
    for module in ("exact", "germs", "cones", "expand", "residues",
                   "latticeexp", "exprio"):
        home = getattr(laurentgerms, module)
        for name in home.__all__:
            assert getattr(laurentgerms, name) is getattr(home, name), name
        declared.update(home.__all__)
    error_classes = {name for name, value in vars(errors).items()
                     if isinstance(value, type)
                     and issubclass(value, errors.LaurentGermsError)}
    submodules = {name for name, value in vars(laurentgerms).items()
                  if getattr(value, "__name__", None)
                  == f"laurentgerms.{name}"}
    # __version__ and the other dunders aside
    rest = {name for name in dir(laurentgerms)
            if not (name.startswith("__") and name.endswith("__"))}
    assert rest - declared - error_classes - submodules == set()
    assert "annotations" not in dir(laurentgerms)
