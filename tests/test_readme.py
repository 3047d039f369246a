"""The README's examples stay in step with the package: its config block
loads, its library sketch calls only what ``wavemaplab`` exports, with
arguments its signatures accept, and the package exports only names its own
code uses."""

import ast
import dataclasses
import functools
import inspect
import re
from pathlib import Path

import wavemaplab
from wavemaplab import cli, fields, quadrature, solver, stress_energy
from wavemaplab.cli import ExperimentConfig, load_config

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(wavemaplab.__file__).resolve().parent
# exported instruments that no command calls: flux_on_cone is the
# one-penalty cone flux, the pair of energy_on_disk, that acceptance
# criterion 3 calls; weak_residual is acceptance criterion 9's instrument
UNCALLED_EXPORTS = {"flux_on_cone", "weak_residual"}


def _block(lang: str) -> str:
    blocks = re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(),
                        flags=re.S | re.M)
    assert len(blocks) == 1, f"expected one {lang} block in the README"
    return blocks[0]


def test_readme_config_loads_to_the_defaults(tmp_path):
    path = tmp_path / "readme.ini"
    path.write_text(_block("ini"))
    cfg, _ = load_config(str(path))
    assert cfg == dataclasses.replace(ExperimentConfig(), name="demo",
                                      out_dir="results")


def test_readme_sketch_names_exported_attributes():
    sketch = _block("python")
    names = set(re.findall(r"\bwm\.(\w+)", sketch))
    assert names
    assert sorted(n for n in names if not hasattr(wavemaplab, n)) == []
    # each wm.X(...) and wm.X.Y(...) call binds to the signature of X or X.Y
    called, stale = [], []
    for node in ast.walk(ast.parse(sketch)):
        path, func = [], getattr(node, "func", None)
        while isinstance(func, ast.Attribute):
            path.insert(0, func.attr)
            func = func.value
        if not (isinstance(func, ast.Name) and func.id == "wm" and path):
            continue
        called.append(".".join(path))
        target = functools.reduce(getattr, path, wavemaplab)
        try:
            inspect.signature(target).bind(
                *node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            stale.append(f"wm.{called[-1]}: {exc}")
    assert "energy_balance" in called
    assert stale == []


def test_every_export_is_used_by_the_package():
    # a use is a name or attribute in code outside __init__; the def or class
    # statement of the name itself is not one
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {a.asname or a.name for node in init.body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert sorted(exported - used - UNCALLED_EXPORTS) == []
    # an exemption goes once its name gains a use or stops being exported
    assert sorted(UNCALLED_EXPORTS - (exported - used)) == []


# the reader of the .npz slab that GridField.save writes, which the README
# documents; no command reads a slab back.  save is the slab writer applied
# to a slab in memory, for library users; penalized-run streams its levels
# through that writer and holds no slab to save
UNCALLED_METHODS = {"GridField.load", "GridField.save"}


def test_every_public_method_is_used_by_the_package():
    # a use is an attribute that a src function with a different name refers
    # to, so an override that calls the method it overrides is not one
    trees = [ast.parse(path.read_text()) for path in SRC.glob("*.py")]
    users: dict = {}  # attribute -> names of the functions that refer to it
    for tree in trees:
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Attribute):
                        users.setdefault(node.attr, set()).add(fn.name)
    unused = {f"{cls.name}.{fn.name}"
              for tree in trees for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef)
              for fn in cls.body
              if isinstance(fn, ast.FunctionDef)
              and not fn.name.startswith("_")
              and not users.get(fn.name, set()) - {fn.name}}
    assert sorted(unused - UNCALLED_METHODS) == []
    # an exemption goes once its method gains a user or is gone
    assert sorted(UNCALLED_METHODS - unused) == []


def test_cone_balances_take_their_geometry_from_their_inputs():
    # the field names its singular point, so no balance takes one, and the
    # solver's trusted_region alone narrows a cone to the slab
    for fn in (wavemaplab.energy_balance, wavemaplab.energy_on_disk):
        names = inspect.signature(fn).parameters
        assert [n for n in names if "singular" in n] == []
    assert not hasattr(cli, "solver_cone_interval")


def _callers(last: str) -> set:
    """(module, top-level def or class) of each src call whose callee's last
    dotted part is ``last``, as in ``np.polynomial.legendre.leggauss``; a
    call outside any def or class has the owner None."""
    found = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) \
                        else getattr(func, "id", None)
                    if name == last:
                        found.add((path.stem, getattr(top, "name", None)))
    return found


def test_one_interval_rule_and_one_csv_writer():
    # every Gauss-Legendre interval rule comes from quadrature._gauss; the
    # sphere's cos(theta) rule stays on its native [-1, 1]
    assert _callers("leggauss") == {("quadrature", "_gauss"),
                                    ("quadrature", "SphereRule")}
    # every CSV file is written by the command layer's one writer
    assert _callers("writer") == {("cli", "_write_csv")}
    importers = {path.stem for path in SRC.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Import)
                 and "csv" in {a.name for a in node.names}}
    assert importers == {"cli"}


def test_memos_are_functools_cache():
    # a module- or class-level empty dict is a hand-rolled memo: the job of
    # functools.cache, as in quadrature's _bump_norm and SphereRule._build
    bodies = []
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        bodies.append((path.stem, tree.body))
        bodies += [(f"{path.stem}.{cls.name}", cls.body)
                   for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)]
    memos = [(owner, ast.unparse(stmt)) for owner, body in bodies
             for stmt in body
             if isinstance(stmt, (ast.Assign, ast.AnnAssign))
             and isinstance(stmt.value, ast.Dict) and not stmt.value.keys]
    assert memos == []


# the @ products that are no weighted sum: a slab cell's integer corner rows
# and the 4x4 boost of the stress tensor's transformation law
MATMUL_SITES = {("fields", "_slab_corners"),
                ("stress_energy", "transformation_check")}


def test_node_sums_run_no_blas():
    # np.dot and @ hand a long sum to BLAS, which splits it across its
    # threads, so a report's last bits would follow the thread count; every
    # node sum goes through fields._dot, einsum's own fixed-order loop
    for name in ("dot", "vdot", "inner", "matmul", "tensordot"):
        assert _callers(name) == set(), name
    matmuls = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            if any(isinstance(node, ast.MatMult) for node in ast.walk(top)):
                matmuls.add((path.stem, getattr(top, "name", None)))
    assert matmuls == MATMUL_SITES


def test_every_weighted_sum_is_fields_dot():
    # a whole-array sum over nodes, corners or cells is fields._dot; np.sum
    # only reduces the components at one node or cell, along an axis it names
    whole = []
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "sum" \
                    and "axis" not in {k.arg for k in node.keywords}:
                whole.append(f"{path.stem}:{node.lineno}")
    assert whole == []
    assert not hasattr(fields, "_weighted_sum")


def _names(path: Path) -> set:
    """The names, attributes and imported modules that a src file uses."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_one_thread_pool_in_one_place():
    # the solver's step runs its x-plane blocks on one ThreadPoolExecutor per
    # run; no other module starts threads or processes
    used = {path.stem: _names(path) for path in SRC.glob("*.py")}
    assert {m for m, names in used.items()
            if "ThreadPoolExecutor" in names} == {"solver"}
    for banned in ("multiprocessing", "ProcessPoolExecutor", "Thread"):
        assert sorted(m for m, names in used.items() if banned in names) == []


def test_one_stepping_loop():
    # every level, the second-order start included, is stepped by the one
    # loop of solver._integrate
    assert _callers("advance") == {("solver", "_integrate")}


def test_one_cell_box_rule():
    # the box of cells a slab stores is computed by solver.cell_box alone,
    # which the two callers of the store call and hand to solver._slab, which
    # checks its memory; a command passes the sweep the cones it reads, never
    # a box, and no other solver function rounds coordinates to cells
    defs = {(path.stem, node.name) for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name == "cell_box"}
    assert defs == {("solver", "cell_box")}
    assert _callers("cell_box") == {("solver", "run"),
                                    ("solver", "penalization_sweep")}
    assert {owner for module, owner in _callers("floor")
            if module == "solver"} == {"cell_box"}


def test_one_store_path():
    # storing a level is its reader's job: the stepping loop takes no box
    # and hands every level to its read hook, and the one store function,
    # solver._slab, is the only solver code that builds a GridField
    tree = ast.parse((SRC / "solver.py").read_text())
    integrate, = (node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_integrate")
    params = [a.arg for a in integrate.args.args + integrate.args.kwonlyargs]
    assert params == ["cfg", "u0", "g0", "read", "ledger"]
    assert {owner for module, owner in _callers("GridField")
            if module == "solver"} == {"_slab"}
    assert _callers("_slab") == {("solver", "run"),
                                 ("solver", "penalization_sweep")}


def test_each_solver_fact_has_one_owner():
    # the pre-flight is made by the one function that allocates a stored
    # box, solver._slab, and by the one run that stores none, run_to_file,
    # on the _Work its run builds; _Work owns the block plan and returns the
    # ledger row it summed
    assert _callers("_check_memory") == {("solver", "_slab"),
                                         ("solver", "run_to_file")}
    assert not hasattr(solver, "_partition")
    assert not hasattr(solver, "_ledger_row")


def test_one_integrator_per_domain():
    # every ball integral is a density handed to quadrature._disk_integral,
    # which alone grades toward a singular point, and every cone-side one a
    # density handed to quadrature._side_integral; the cone identity builds
    # only the base nodes of its max of Dw and the times of its bulk disks
    assert _callers("_disk_nodes") == {("quadrature", "_disk_integral"),
                                       ("stress_energy", "comp_identity_check")}
    assert _callers("_singular_center") == {("quadrature", "_disk_integral")}
    assert _callers("_cone_slices") == {("quadrature", "_side_integral"),
                                        ("stress_energy", "comp_identity_check")}
    assert not hasattr(quadrature, "_disk_energies")
    assert not hasattr(quadrature, "_cone_fluxes")
    # the point charge too: stress_tensor's spatial block of the boosted
    # map's jets_at, the hedgehog kernel's only caller, on one graded ball
    boosted = ("fields", "BoostedHarmonicMap")
    assert _callers("harmonic_v_jet_batch") == {boosted}
    charge = ("stress_energy", "recover_point_charge")
    assert charge in _callers("stress_tensor")
    assert charge in _callers("_disk_integral")
    assert _callers("_gauss") == {("quadrature", "_bump_norm"),
                                  ("quadrature", "_cone_slices"),
                                  ("quadrature", "_disk_nodes"),
                                  ("stress_energy", "weak_residual")}
    assert not hasattr(stress_energy, "_charge_pairing")
