"""Builders, the Kac-Paljutkin quantum group, builtins, and the qgspec-1
document format."""

import argparse
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quidem import cyclic, dihedral, function_algebra, group_algebra, kac_paljutkin, symmetric
from quidem import qgroup
from quidem.catalogue import BUILTINS, QGSpecError, builtin, from_document, load, save, to_document
from quidem.cli import build_parser
from quidem.qgroup import (
    cocommutativity_defect,
    commutativity_defect,
    verify_axioms,
)


def test_trivial_group_degenerate_case():
    g1 = function_algebra(cyclic(1))
    assert g1.algebra.block_dims == (1,)
    assert verify_axioms(g1, 1e-12).passed
    assert group_algebra(cyclic(1)).algebra.block_dims == (1,)


def test_function_algebra_shapes():
    g = function_algebra(cyclic(2))
    assert g.algebra.block_dims == (1, 1)
    assert np.allclose(g.haar.density.vec, [0.5, 0.5])
    assert function_algebra(symmetric(3)).algebra.block_dims == (1,) * 6


def test_function_algebras_pass_axioms_up_to_order_8():
    for table in (cyclic(3), cyclic(5), cyclic(7), cyclic(8), dihedral(3), dihedral(4)):
        assert verify_axioms(function_algebra(table), 1e-12).passed


def test_function_algebra_commutative_group_algebra_cocommutative():
    for table in (cyclic(4), symmetric(3)):
        fn = function_algebra(table)
        gp = group_algebra(table)
        assert commutativity_defect(fn) == 0.0
        assert cocommutativity_defect(gp) < 1e-12
        assert verify_axioms(fn, 1e-9).passed
        assert verify_axioms(gp, 1e-9).passed


def test_group_algebra_block_dims():
    assert group_algebra(cyclic(4)).algebra.block_dims == (1, 1, 1, 1)
    assert group_algebra(symmetric(3)).algebra.block_dims == (1, 1, 2)
    assert group_algebra(dihedral(4)).algebra.block_dims == (1, 1, 1, 1, 2)


def test_group_algebra_lambda_basis_properties(gs3):
    table = gs3.table
    lam = gs3.lambda_basis
    # λ_g λ_h = λ_{gh}
    rng = np.random.default_rng(0)
    for _ in range(10):
        g, h = rng.integers(0, 6, size=2)
        lhs = gs3.algebra.from_vec(lam[:, g]) * gs3.algebra.from_vec(lam[:, h])
        assert (lhs - gs3.algebra.from_vec(lam[:, table.op(g, h)])).operator_norm < 1e-10
    # Haar picks out the identity coefficient
    for g in range(6):
        expected = 1.0 if g == table.identity else 0.0
        assert gs3.haar(gs3.algebra.from_vec(lam[:, g])) == pytest.approx(expected, abs=1e-10)


def test_order_twelve_dihedral_group_algebra():
    """Two distinct 2-dimensional blocks, the rotations by π/3 and 2π/3, each
    with its own matrix units."""
    from quidem.idempotents import decompose, enumerate_group_algebra, is_contractive_idempotent

    g = group_algebra(dihedral(6))
    assert g.algebra.block_dims == (1, 1, 1, 1, 2, 2)
    assert verify_axioms(g, 1e-9).passed
    items = enumerate_group_algebra(g)
    assert len(items) == 74
    for item in items[::7]:
        assert is_contractive_idempotent(g, item.functional, 1e-9)
        rep = decompose(g, item.functional, 1e-8)
        assert rep.haar == g.table.is_normal(item.subgroup)


def test_kac_paljutkin_properties(kp):
    assert kp.algebra.block_dims == (1, 1, 1, 1, 2)
    assert verify_axioms(kp, 1e-12).passed
    assert commutativity_defect(kp) > 0.1
    assert cocommutativity_defect(kp) > 0.1


def test_builtins():
    assert builtin("czn:4").algebra.block_dims == (1, 1, 1, 1)
    assert builtin("cstar:zn:3").algebra.block_dims == (1, 1, 1)
    assert builtin("cstar:dn:4").algebra.block_dims == (1, 1, 1, 1, 2)
    assert builtin("cfun:sn:3").algebra.block_dims == (1,) * 6
    assert builtin("cstar:sn:3").algebra.block_dims == (1, 1, 2)
    assert builtin("kp").name == "KacPaljutkin"
    with pytest.raises(ValueError):
        builtin("nonsense:3")


# display name, kind and order of each builtin family at N, written out by hand
FAMILIES = {"czn": ("C(Z{})", "function", lambda n: n), "cstar:zn": ("C*(Z{})", "group", lambda n: n),
            "cstar:dn": ("C*(D{})", "group", lambda n: 2 * n), "cfun:sn": ("C(S{})", "function", math.factorial),
            "cstar:sn": ("C*(S{})", "group", math.factorial)}


def test_builtin_families_are_listed_in_order():
    assert BUILTINS == ("czn:N", "cstar:zn:N", "cstar:dn:N", "cfun:sn:N", "cstar:sn:N", "kp")


@pytest.mark.parametrize("family", [spec.removesuffix(":N") for spec in BUILTINS if spec.endswith(":N")])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_builtin_family_builds_with_its_display_name(family, n):
    name, kind, order = FAMILIES[family]
    G = builtin(f"{family}:{n}")
    assert (G.name, G.kind) == (name.format(n), kind)
    assert G.dim == G.table.order == order(n)
    assert verify_axioms(G, 1e-12).passed


def _listed(text):
    """The names of a comma-separated list whose last item may read "or NAME"."""
    return tuple(item.removeprefix("or ") for item in text.split(", "))


def test_group_help_and_unknown_builtin_message_list_the_builtins():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    for command in commands.values():
        group = next(a for a in command._actions if a.dest == "group")
        assert _listed(group.help.split("builtins: ")[1]) == BUILTINS
    with pytest.raises(ValueError, match="^unknown builtin 'nonsense:3'; expected ") as caught:
        builtin("nonsense:3")
    assert _listed(str(caught.value).split("expected ")[1]) == BUILTINS


def test_display_names_read_the_integer_and_unknown_families_are_named():
    assert builtin("czn:06").name == "C(Z6)"
    assert builtin("cstar:zn:06").name == "C*(Z6)"
    for spec in ("cstar:xx:abc", "cstar:xx:3", "kp:1", "czn:4:5", "cstar:zn"):
        with pytest.raises(ValueError, match=f"^unknown builtin {spec!r}"):
            builtin(spec)
    with pytest.raises(ValueError, match="^invalid builtin spec 'czn:abc': invalid literal"):
        builtin("czn:abc")


CSTAR_BUILTINS = ([f"cstar:zn:{n}" for n in range(1, 25)] + [f"cstar:dn:{n}" for n in range(1, 13)]
                  + [f"cstar:sn:{n}" for n in range(1, 5)])


def _structure_data(G):
    return G.algebra.block_dims, G.comult, G.antipode, G.counit.covector, G.haar.covector, G.lambda_basis


def _bit_identical(G, H):
    return all(np.array_equal(a, b) for a, b in zip(_structure_data(G), _structure_data(H)))


@pytest.mark.parametrize("spec", CSTAR_BUILTINS)
def test_group_algebra_builds_are_bit_identical(spec):
    assert _bit_identical(builtin(spec), builtin(spec))


def test_group_algebra_does_not_read_the_dual_seed(monkeypatch):
    """The build from irreps draws no random commutant element: another seed
    for the Wedderburn split leaves C*(S4), blocks (1,1,2,3,3), unchanged."""
    G = builtin("cstar:sn:4")
    assert G.algebra.block_dims == (1, 1, 2, 3, 3)
    monkeypatch.setattr(qgroup, "_DUAL_SEED", 12345)
    assert _bit_identical(builtin("cstar:sn:4"), G)


def test_symmetric_group_algebra_at_order_120():
    """C*(S5), dimension 120, builds and passes the build guard.  Its axiom
    rows are not measured here: their dim⁴ stacks need ~3.3 GB."""
    G = builtin("cstar:sn:5")
    assert G.algebra.block_dims == (1, 1, 4, 4, 5, 5, 6)
    assert G.name == "C*(S5)" and G.lambda_basis.shape == (120, 120)


def test_document_roundtrip_cz4(tmp_path, cz4):
    path = tmp_path / "cz4.qgspec"
    save(cz4, path)
    loaded = load(path)
    assert loaded.algebra.block_dims == cz4.algebra.block_dims
    assert np.array_equal(loaded.comult, cz4.comult)
    assert np.array_equal(loaded.antipode, cz4.antipode)
    assert np.array_equal(loaded.counit.density.vec, cz4.counit.density.vec)
    assert np.array_equal(loaded.haar.density.vec, cz4.haar.density.vec)
    # byte-exact re-serialization
    assert json.dumps(to_document(loaded)) == json.dumps(to_document(cz4))


def test_document_roundtrip_kp(tmp_path, kp):
    path = tmp_path / "kp.qgspec"
    save(kp, path)
    loaded = load(path)
    assert verify_axioms(loaded, 1e-12).passed
    assert np.array_equal(loaded.comult, kp.comult)


def test_malformed_document_errors(tmp_path, kp):
    path = tmp_path / "broken.qgspec"
    path.write_text("{not json")
    with pytest.raises(QGSpecError) as err:
        load(path)
    assert "line" in str(err.value)
    with pytest.raises(QGSpecError):
        from_document({"schema": "other"})
    with pytest.raises(QGSpecError):
        from_document({"schema": "qgspec-1", "block_dims": [1]})
    doc = to_document(builtin("czn:2"))
    for key, value in (("comult", 5), ("antipode", [[[1, 0]], [[0, 0], [1, 0]]]),
                       ("block_dims", [1.7, 1]), ("block_dims", "11"), ("counit", [[1e999, 0], [0, 0]])):
        with pytest.raises(QGSpecError, match=key):
            from_document({**doc, key: value})
    # entries so large that the products of the axiom check overflow
    doc = to_document(kp)
    with pytest.raises(QGSpecError, match="axiom check"), np.errstate(all="ignore"):
        from_document({**doc, "comult": [[[1e308, 1e308]] * len(row) for row in doc["comult"]]})


def test_boolean_entries_are_a_spec_error():
    """JSON true is not the number 1, although Python counts a bool as an
    int: a document of C(Z2) whose block sizes or [re, im] pairs hold
    booleans fails, naming the field."""
    doc = to_document(builtin("czn:2"))
    assert doc["block_dims"] == [1, 1]
    for dims in ([True, True], [1, True], [False]):
        with pytest.raises(QGSpecError, match="block_dims"):
            from_document({**doc, "block_dims": dims})
    for key, value in [("counit", [[True, False], [False, False]]), ("haar", [[0.5, 0], [0.5, False]]),
                       ("comult", [[[bool(re), bool(im)] for re, im in row] for row in doc["comult"]]),
                       ("antipode", [[[re, im] for re, im in row[:-1]] + [[row[-1][0], False]]
                                     for row in doc["antipode"]])]:
        with pytest.raises(QGSpecError, match=key):
            from_document({**doc, key: value})


@pytest.mark.parametrize("key, scale", [("comult", 1e200), ("antipode", 1e300)])
def test_overflowing_axiom_check_is_a_spec_error(kp, key, scale):
    """Finite structure data whose axiom-check products overflow raise
    QGSpecError, with no RuntimeWarning on the way."""
    doc = to_document(kp)
    scaled = [[[re * scale, im * scale] for re, im in row] for row in doc[key]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QGSpecError, match="axiom check cannot run .*overflow"):
            from_document({**doc, key: scaled})


def test_axiom_failure_on_load_warns(tmp_path, cz4):
    doc = to_document(cz4)
    doc["antipode"][0][0] = [0.5, 0.0]
    path = tmp_path / "corrupt.qgspec"
    path.write_text(json.dumps(doc))
    with pytest.warns(UserWarning, match="fails axioms"):
        load(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_documents_load_or_raise_spec_error(data):
    """Replace or delete one field of a valid document, or one entry at any
    depth inside it: loading gives a quantum group or a QGSpecError."""
    doc = to_document(builtin("czn:2"))
    parent, key = doc, data.draw(st.sampled_from(sorted(doc)))
    while isinstance(parent[key], list) and parent[key] and data.draw(st.booleans()):
        parent, key = parent[key], data.draw(st.integers(0, len(parent[key]) - 1))
    if parent is doc and data.draw(st.booleans()):
        del doc[key]
    else:
        parent[key] = data.draw(_JSON)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            G = from_document(doc)
        except QGSpecError:
            return
    assert G.algebra.block_dims == tuple(int(n) for n in doc["block_dims"])
