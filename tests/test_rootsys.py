"""Root system construction, strings, and subsystem classification."""

import gc
import itertools
import re
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from nk_triad import cli, exact, fibration, rootsys, tables
from nk_triad.rootsys import (
    InvalidRank,
    NotARoot,
    NotClosed,
    RootSystem,
    build_root_system,
    diagram_automorphisms,
    enumerate_inner_order3,
    root_string,
    subsystem_type,
)

from conftest import all_roots, canonical_simple_type, root_inner, root_key, root_mask

CLASSICAL_COUNTS = {
    ("a", 1): 1, ("a", 2): 3, ("a", 5): 15,
    ("b", 2): 4, ("b", 5): 25, ("c", 3): 9, ("d", 4): 12, ("d", 6): 30,
    ("g", 2): 6, ("f", 4): 24, ("e", 6): 36, ("e", 7): 63, ("e", 8): 120,
}


@pytest.mark.parametrize("family,rank", sorted(CLASSICAL_COUNTS))
def test_positive_root_counts(family, rank):
    rs = build_root_system(family, rank)
    assert rs.n_positive == CLASSICAL_COUNTS[(family, rank)]


def test_marks_match_diagrams():
    assert build_root_system("g", 2).marks == (3, 2)
    assert build_root_system("f", 4).marks == (2, 3, 4, 2)
    assert build_root_system("e", 6).marks == (1, 2, 2, 3, 2, 1)
    assert build_root_system("e", 7).marks == (2, 2, 3, 4, 3, 2, 1)
    assert build_root_system("e", 8).marks == (2, 3, 4, 6, 5, 4, 3, 2)
    assert build_root_system("d", 4).marks == (1, 2, 1, 1)
    assert build_root_system("b", 5).marks == (1, 2, 2, 2, 2)
    assert build_root_system("c", 5).marks == (2, 2, 2, 2, 1)
    assert build_root_system("a", 1).marks == (1,)


def test_highest_root_normalization_and_dominance():
    for family, rank in CLASSICAL_COUNTS:
        rs = build_root_system(family, rank)
        assert root_inner(rs, rs.marks, rs.marks) == 2
        for r in rs.roots[:rs.n_positive]:
            assert all(m >= c for m, c in zip(rs.marks, r))
            assert all(c >= 0 for c in r)
            assert root_inner(rs, r, r) in (Fraction(2), Fraction(1), Fraction(2, 3))


@pytest.mark.parametrize("family,rank", [("g", 2), ("f", 4), ("b", 3), ("c", 3)])
def test_inner_product_and_membership_match_reference(family, rank):
    """The integer 6 x Gram sums and the all-roots set against a Fraction sum
    over 6 x Gram / 6 and membership in +-positive roots, both computed here."""
    rs = build_root_system(family, rank)

    def reference(a, b):
        return sum((Fraction(x * y) * Fraction(rs.gram6[i][j], 6)
                    for i, x in enumerate(a) for j, y in enumerate(b)), Fraction(0))

    roots = all_roots(rs)
    for a in roots:
        assert reference(a, a) == root_inner(rs, a, a)
        for b in roots:
            assert root_inner(rs, a, b) == reference(a, b)
    members = set(rs.roots[:rs.n_positive])
    members |= {tuple(-x for x in c) for c in members}
    bound = max(rs.marks) + 1
    box = list(itertools.product(range(-bound, bound + 1), repeat=rank))
    assert (0,) * rank in box and not rs.is_root((0,) * rank)
    for c in box:
        assert rs.is_root(c) == (c in members)


def test_cartan_matrix_recomputed_from_gram():
    for family, rank in [("g", 2), ("f", 4), ("b", 3), ("e", 6)]:
        rs = build_root_system(family, rank)
        for i in range(rank):
            for j in range(rank):
                entry = 2 * Fraction(rs.gram6[i][j], 6) / Fraction(rs.gram6[j][j], 6)
                assert entry == rs.cartan_matrix[i][j]
                assert entry.denominator == 1


def test_crystallographic_condition():
    for family, rank in [("g", 2), ("f", 4), ("c", 3), ("d", 4)]:
        rs = build_root_system(family, rank)
        for a in rs.roots[:rs.n_positive]:
            for b in rs.roots[:rs.n_positive]:
                q = 2 * root_inner(rs, a, b) / root_inner(rs, b, b)
                assert q.denominator == 1


def test_invalid_ranks():
    for family, rank in [("d", 3), ("e", 5), ("e", 9), ("f", 3), ("g", 3),
                         ("a", 0), ("b", 1), ("x", 4)]:
        with pytest.raises(InvalidRank):
            build_root_system(family, rank)


def test_budget_admits_the_paper_and_refuses_before_building():
    """Every type of rank up to 8, a40 and a60 are within the byte budget, and
    the estimate is the addition table and coefficients the build holds; a
    rank far beyond it is refused at once, naming the estimate."""
    for family, rank in [(f, r) for f in "abcdefg" for r in range(1, 9)] + [("a", 40), ("a", 60)]:
        if rootsys._RANK_TEST[family](rank):
            assert rootsys.root_system_bytes(family, rank) <= rootsys.ROOT_SYSTEM_BUDGET
    for family, rank in [("a", 40), ("b", 5), ("d", 12), ("e", 8), ("g", 2)]:
        rs = build_root_system(family, rank)
        assert rootsys.root_system_bytes(family, rank) == rs.plus.nbytes + rs._coeffs.nbytes
    with pytest.raises(InvalidRank, match=r"^d10000000: its root system needs an estimated "
                                          r"2\.98e\+20 GiB, over the budget of 1 GiB$"):
        build_root_system("d", 10 ** 7)
    assert rootsys.root_system_bytes("a", 106) <= rootsys.ROOT_SYSTEM_BUDGET \
        < rootsys.root_system_bytes("a", 107)


def test_g2_explicit_positive_roots():
    rs = build_root_system("g", 2)
    coeffs = set(rs.roots[:rs.n_positive])
    assert coeffs == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}
    assert rs.marks == (3, 2)


def test_root_string_examples():
    g2 = build_root_system("g", 2)
    assert root_string(g2, (1, 0), (0, 1)) == (0, 3)
    a2 = build_root_system("a", 2)
    assert root_string(a2, (1, 0), (0, 1)) == (0, 1)
    # empty string when neither sum nor difference is a root
    b3 = build_root_system("b", 3)
    assert root_string(b3, (1, 0, 0), (0, 0, 1)) == (0, 0)
    with pytest.raises(NotARoot):
        root_string(a2, (1, 0), (1, 0))
    with pytest.raises(NotARoot):
        root_string(a2, (2, 0), (0, 1))


def _string_by_scan(rs, a, b):
    """Independent membership scan for the string bounds."""
    q = 0
    while rs.is_root(tuple(x + (q + 1) * y for x, y in zip(b, a))):
        q += 1
    p = 0
    while rs.is_root(tuple(x - (p + 1) * y for x, y in zip(b, a))):
        p += 1
    return -p, q


def test_root_string_matches_pairing():
    """Every ordered pair of distinct, non-opposite roots of a3, b3, c3, g2
    and f4: the walk through ``plus`` against the membership scan and the
    pairing."""
    for label in ["a3", "b3", "c3", "g2", "f4"]:
        rs = build_root_system(label[0], int(label[1]))
        roots = all_roots(rs)
        for a in roots:
            for b in roots:
                if a == b or a == tuple(-c for c in b):
                    continue
                p, q = root_string(rs, a, b)
                assert (p, q) == _string_by_scan(rs, a, b)
                assert p <= 0 <= q
                assert p + q == -2 * root_inner(rs, b, a) / root_inner(rs, a, a)


def test_subsystem_round_trip():
    for family, rank in [("a", 5), ("b", 4), ("c", 4), ("c", 2), ("d", 4),
                         ("d", 5), ("f", 4), ("g", 2), ("e", 6)]:
        rs = build_root_system(family, rank)
        st_full = subsystem_type(rs, root_mask(rs, rs.roots))
        assert st_full.components == canonical_simple_type(family, rank)
        assert st_full.torus_rank == 0


def test_subsystem_f4_fixed_roots_are_c3():
    """Roots annihilated mod 1 by the mark-2 node-1 element are a c3 system."""
    rs = build_root_system("f", 4)
    fixed = [c for c in rs.roots[:rs.n_positive] if c[0] == 0 or c[0] == 2]
    fixed = [c for c in fixed if (Fraction(c[0], 2) * Fraction(2, 3)) % 1 == 0]
    full = fixed + [tuple(-x for x in c) for c in fixed]
    st_fixed = subsystem_type(rs, root_mask(rs, full))
    assert st_fixed.components == (("c", 3),)
    assert st_fixed.torus_rank == 1


def test_subsystem_e7_node2_closure_is_a7():
    """Fixed roots plus the layer-2 roots of the e7 mark-2 node close to a7."""
    rs = build_root_system("e", 7)
    keep = [c for c in rs.roots[:rs.n_positive] if c[1] in (0, 2)]
    full = keep + [tuple(-x for x in c) for c in keep]
    st_sub = subsystem_type(rs, root_mask(rs, full))
    assert st_sub.components == (("a", 7),)
    assert st_sub.torus_rank == 0


def test_subsystem_not_closed_raises():
    rs = build_root_system("a", 2)
    with pytest.raises(NotClosed):
        subsystem_type(rs, root_mask(rs, [(1, 0), (-1, 0), (0, 1)]))  # missing -alpha_2
    with pytest.raises(NotClosed):
        subsystem_type(rs, root_mask(rs, [(1, 0), (-1, 0), (0, 1), (0, -1)]))  # sum missing


def test_not_closed_mask_raises_on_every_call_and_is_not_stored():
    """Only closed masks enter the memo: a mask that fails the closure check
    raises each time it is asked, before and after a closed one is stored."""
    rs = build_root_system("a", 2)
    bad = root_mask(rs, [(1, 0), (-1, 0), (0, 1), (0, -1)])           # sum missing
    for _ in range(2):
        with pytest.raises(NotClosed, match="not closed under addition"):
            subsystem_type(rs, bad)
    assert rs._subsystem_types == {}
    good = root_mask(rs, [(1, 0), (-1, 0)])
    assert subsystem_type(rs, good) is subsystem_type(rs, good)
    assert list(rs._subsystem_types) == [np.packbits(good).tobytes()]
    with pytest.raises(NotClosed, match="not closed under addition"):
        subsystem_type(rs, bad)


def test_each_root_system_has_its_own_memo():
    """A second root system of the same type starts with an empty memo, and
    classifies afresh to an equal result."""
    first = build_root_system("b", 3)
    full = root_mask(first, first.roots)
    st_first = subsystem_type(first, full)
    second = build_root_system("b", 3)
    assert second._subsystem_types == {}
    assert subsystem_type(second, full) == st_first
    assert subsystem_type(second, full) is not st_first
    assert len(first._subsystem_types) == len(second._subsystem_types) == 1


def _split_lists(rs, cls):
    layers, k = cls.split(rs)
    return {label: roots.tolist() for label, roots in layers.items()}, k.tolist()


def test_memo_shared_across_threads_gives_serial_results():
    """Threads classifying the same masks of one root system at once, and
    splitting the same inner classes on it, with a short switch interval, all
    get the serial results; the memos end with one entry per mask and per
    class, and the split arrays they hand out are read-only."""
    rs = build_root_system("e", 7)
    classes = enumerate_inner_order3(rs)
    masks = [cls.levels(rs)[0] == 0 for cls in classes]     # k's roots and their negatives
    fresh = build_root_system("e", 7)
    serial = [subsystem_type(fresh, m) for m in masks] + [_split_lists(fresh, c) for c in classes]
    results, interval = [], sys.getswitchinterval()

    def work():
        results.append([subsystem_type(rs, m) for m in masks for _ in range(3)]
                       + [_split_lists(rs, c) for c in classes for _ in range(3)])

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[st for st in serial for _ in range(3)]] * 4
    assert len(rs._subsystem_types) == len({m.tobytes() for m in masks})
    assert list(rs._splits) == classes
    layers, k = classes[0].split(rs)
    for arr in [k, *layers.values()]:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_tables_classify_each_mask_once(monkeypatch, capsys):
    """``verify tables --deep`` and ``verify fibrations --deep`` in one process,
    from empty memos, ask for more classifications than there are distinct
    (root system, mask) pairs, and classify each pair exactly once."""
    for rs in tables._ROOTSYS.values():
        monkeypatch.setattr(rs, "_subsystem_types", {})
    asked, classified = Counter(), Counter()

    def recording(counter, fn):
        def wrapped(rs, subset):
            counter[(id(rs), np.packbits(subset).tobytes())] += 1
            return fn(rs, subset)
        return wrapped

    for module in (tables, fibration):
        monkeypatch.setattr(module, "subsystem_type", recording(asked, subsystem_type))
    monkeypatch.setattr(rootsys, "_classify", recording(classified, rootsys._classify))
    assert cli.main(["verify", "tables", "--deep"]) == 0
    assert cli.main(["verify", "fibrations", "--deep"]) == 0
    assert "ok" in capsys.readouterr().out
    assert sum(asked.values()) > len(asked) > 0
    assert classified == Counter(dict.fromkeys(asked, 1))


def test_key_is_additive_and_never_aliases():
    for family, rank in [("a", 2), ("g", 2), ("f", 4), ("e", 8)]:
        rs = build_root_system(family, rank)
        roots = all_roots(rs)
        assert rs.key_base == 4 * max(rs.marks) + 1
        key = {c: root_key(rs, c) for c in roots}
        keys = set(key.values())
        assert len(keys) == len(roots)
        assert all(key[c] == k for c, k in zip(rs.roots, rs._keys64.tolist()))   # no wrap here
        for a in roots:
            for b in roots:
                s = tuple(x + y for x, y in zip(a, b))
                assert (key[a] + key[b] in keys) == rs.is_root(s)
                if rs.is_root(s):
                    assert key[a] + key[b] == key[s]


@pytest.mark.parametrize("rank", [28, 40])
def test_plus_matches_tuple_addition_where_int64_keys_wrap(rank):
    """From a28, key_base ** rank passes 2^63 and the int64 keys wrap; the
    table still equals tuple addition on every pair, looked up here on the
    coefficient bytes (exact: a sum of two roots of a_n has digits in -2..2)."""
    rs = build_root_system("a", rank)
    assert rs.key_base ** rank > 2 ** 63
    coeffs = rs._coeffs.astype(np.int8)
    as_bytes = lambda a: np.ascontiguousarray(a).reshape(-1, rank).view(f"V{rank}").ravel()
    keys = as_bytes(coeffs)
    order = np.argsort(keys)
    for lo in range(0, len(keys), 256):
        sums = as_bytes(coeffs[lo:lo + 256, None] + coeffs[None])
        at = np.minimum(np.searchsorted(keys[order], sums), len(keys) - 1)
        want = np.where(keys[order][at] == sums, order[at], -1)
        assert np.array_equal(rs.plus[lo:lo + 256].ravel(), want)


def test_plus_raises_on_an_aliased_key():
    """On a28, one corrupted key that makes alpha_1 + alpha_1 read as a root."""
    rs = RootSystem("a", 28)
    a1, a12 = (tuple(int(k < n) for k in range(28)) for n in (1, 2))
    rs._keys64[rs.root_index[a12]] = 2 * rs._keys64[rs.root_index[a1]]
    with pytest.raises(OverflowError, match=rf"{re.escape(f'{a1} + {a1} read as {a12}')}$"):
        rs.plus


@pytest.mark.parametrize("family,rank", [("a", 28), ("b", 20)])
def test_plus_wrap_check_holds_under_five_tables(family, rank):
    """Where the int64 keys wrap, building ``plus`` and checking every stored
    entry on the coefficients peaks under 5x the table (tracemalloc, with the
    collector off): the check reads one row of the table at a time."""
    rs = build_root_system(family, rank)
    assert rs.key_base ** rank > 2 ** 63
    gc.disable()
    tracemalloc.start()
    try:
        plus = rs.plus
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak < 5 * plus.nbytes, peak / plus.nbytes


@pytest.mark.parametrize("vector", [(9, -9), (-4, 1), (5, -1), (2, 0)])
def test_vector_outside_digit_range_is_not_a_root(vector):
    """(-4, 1) and (5, -1) read as base-5 digits give the keys of (1, 0) and
    (0, 0); membership is checked on the tuple, so nothing aliases."""
    rs = build_root_system("a", 2)
    with pytest.raises(NotARoot):
        root_key(rs, vector)
    with pytest.raises(NotARoot):
        root_mask(rs, [vector, tuple(-x for x in vector), (1, 0), (-1, 0)])


ORACLE_TYPES = ([("a", n) for n in range(1, 9)] + [("b", n) for n in range(2, 9)]
                + [("c", n) for n in range(3, 9)] + [("d", n) for n in range(4, 9)]
                + [("e", 6), ("e", 7), ("e", 8), ("f", 4), ("g", 2)])


@pytest.mark.parametrize("family,rank", ORACLE_TYPES)
def test_subsystem_type_matches_fraction_oracle(family, rank, subsystem_oracle,
                                                fraction_count):
    """The int-key classification against the Fraction reference on the
    isotropy of every inner order-3 class and on the whole system; the int
    path, run from an empty memo so that every distinct mask is classified,
    builds no Fraction."""
    rs = build_root_system(family, rank)
    subsets = [all_roots(rs)]
    for cls in enumerate_inner_order3(rs):
        fixed = [c for c, t in zip(rs.roots[:rs.n_positive], cls.levels(rs)[0]) if t == 0]
        subsets.append(fixed + [tuple(-x for x in c) for c in fixed])
    assert rs._subsystem_types == {}
    types, built = fraction_count(lambda: [subsystem_type(rs, root_mask(rs, s)) for s in subsets])
    assert built == 0
    assert len(rs._subsystem_types) == len({root_mask(rs, s).tobytes() for s in subsets})
    assert types == [subsystem_oracle(rs, s) for s in subsets]


GENERATION_TYPES = ([("a", n) for n in range(1, 9)] + [("b", n) for n in range(2, 9)]
                    + [("c", n) for n in range(2, 9)] + [("d", n) for n in range(4, 9)]
                    + [("e", 6), ("e", 7), ("e", 8), ("f", 4), ("g", 2)]
                    + [("a", 20), ("b", 12), ("d", 12), ("a", 28), ("a", 30)])


@pytest.mark.parametrize("family,rank", GENERATION_TYPES)
def test_generation_matches_the_reference_search(family, rank, positive_roots_oracle):
    """The positive roots in order with their squared lengths, the marks, the
    highest root, the 2n roots and their index against the reference search,
    up to a28 and a30, where the int64 root keys wrap."""
    rs = build_root_system(family, rank)
    want = positive_roots_oracle(rs)
    assert [(c, root_inner(rs, c, c)) for c in rs.roots[:rs.n_positive]] == want
    top = max(want, key=lambda cn: (sum(cn[0]), cn[0]))
    assert (rs.marks, root_inner(rs, rs.marks, rs.marks)) == top
    assert rs.marks == top[0]
    pos = [c for c, _ in want]
    assert rs.roots == pos + [tuple(-x for x in c) for c in pos]
    assert rs.root_index == {c: k for k, c in enumerate(rs.roots)}


def test_diagram_automorphisms():
    assert len(diagram_automorphisms(build_root_system("a", 4))) == 2
    assert len(diagram_automorphisms(build_root_system("d", 4))) == 6
    assert len(diagram_automorphisms(build_root_system("d", 5))) == 2
    assert len(diagram_automorphisms(build_root_system("e", 6))) == 2
    assert len(diagram_automorphisms(build_root_system("e", 7))) == 1
    assert len(diagram_automorphisms(build_root_system("b", 4))) == 1


def _report_parts(report):
    """(the report's fields but its name and class, each layer's (dim, r,
    Ric, C) by label)."""
    layers = {e.layer: (report.splitting[e.layer], e.value, ric.value, c.value)
              for e, ric, c in zip(report.r_eigs, report.ric_eigs, report.c_eigs)}
    return (report.algebra, report.nk_type, report.dim_m, report.einstein, report.einstein_constant,
            report.mu2, report.lk_ratio, report.lk_label, report.kahler, report.notes), layers


def test_diagram_twins_have_one_report_up_to_a_relabelling_of_layers():
    """Leaving out the diagram images (``dedup=True``) is sound on the exact
    side.  Up to rank 8, every non-Kahler class the dedup merges away has one
    kept twin under ``diagram_automorphisms``, 41 pairs, and the two
    ``inner_report``s agree: every field but the name and the class, and the
    layers up to a relabelling.  On a_n the flip reverses the node order,
    which swaps V2 and V3 (on a5 nodes 1,3 and 3,5 their tables differ); on
    d_n and e6 the layers agree as labelled.  b2 node 2 and c2 node 1, both
    CP^3, have equal reports but for the algebra's name."""
    families = [("a", r) for r in range(1, 9)] + [("b", r) for r in range(2, 9)] \
        + [("c", r) for r in range(3, 9)] + [("d", r) for r in range(4, 9)] \
        + [("e", 6), ("e", 7), ("e", 8), ("f", 4), ("g", 2)]
    swap = {"V2": "V3", "V3": "V2"}
    pairs = []
    for family, rank in families:
        rs = tables.cached_root_system(family, rank)
        kept = enumerate_inner_order3(rs, dedup=True)
        merged = [c for c in enumerate_inner_order3(rs) if c not in kept and c.kind != "A3I"]
        autos = diagram_automorphisms(rs)
        for cls in merged:
            images = {tuple(sorted(perm[n - 1] + 1 for n in cls.nodes)) for perm in autos}
            (twin,) = [k for k in kept if k.kind == cls.kind and k.nodes in images]
            cd = tables.cached_chevalley(family, rank)
            (fields, layers), (want_fields, want) = (_report_parts(exact.inner_report(cd, c, "x"))
                                                     for c in (cls, twin))
            relabel = swap if family == "a" else {}
            assert fields == want_fields, (family, rank, cls.nodes)
            assert {relabel.get(lbl, lbl): v for lbl, v in layers.items()} == want, (family, rank, cls.nodes)
            pairs.append((family, rank, cls.nodes, twin.nodes))
    assert len(pairs) == 41
    a5 = [_report_parts(exact.inner_report(tables.cached_chevalley("a", 5),
                                           rootsys.InnerClass.of_nodes(tables.cached_root_system("a", 5), n),
                                           "x"))[1] for n in ((1, 3), (3, 5))]
    assert ("a", 5, (3, 5), (1, 3)) in pairs and a5[0] != a5[1]
    b2, c2 = (_report_parts(exact.inner_report(tables.cached_chevalley(f, 2),
                                               rootsys.InnerClass.of_nodes(tables.cached_root_system(f, 2), n),
                                               "x"))
              for f, n in (("b", (2,)), ("c", (1,))))
    assert b2[0][1:] == c2[0][1:] and b2[1] == c2[1] and b2[0][0] != c2[0][0]
