"""Tables I and II: the CO-oxidation reaction types and their type split.

Table I lists the seven reaction types of the CO-oxidation (Ziff)
model as transformations applied at a site ``s``; Table II their
partition into orientation-pure subsets ``T0``/``T1``.  The drivers
generate both from the package's model definitions and render them in
the paper's notation, plus machine-checkable row data used by the
tests (which assert the generated tables match the paper's rows
exactly — up to the documented typo in ``Rt^(3)_{CO+O}``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..io.report import format_table
from ..models.zgb import ziff_model
from ..partition.typesplit import TypeSplit, split_by_orientation

__all__ = ["Table1Row", "table1_rows", "table1_report", "table2_split", "table2_report"]

#: The rows of Table I as printed in the paper (orientation -> set of
#: (offset, src, tg) triples).  Row ``CO+O`` orientation 3 is given in
#: its *intended* form (src "O", not the printed typo "CO").
PAPER_TABLE1 = {
    "CO+O": {
        0: {((0, 0), "CO", "*"), ((1, 0), "O", "*")},
        1: {((0, 0), "CO", "*"), ((0, 1), "O", "*")},
        2: {((0, 0), "CO", "*"), ((-1, 0), "O", "*")},
        3: {((0, 0), "CO", "*"), ((0, -1), "O", "*")},
    },
    "O2_ads": {
        0: {((0, 0), "*", "O"), ((1, 0), "*", "O")},
        1: {((0, 0), "*", "O"), ((0, 1), "*", "O")},
    },
    "CO_ads": {0: {((0, 0), "*", "CO")}},
}

#: Table II: subset membership by reaction-type name.
PAPER_TABLE2 = {
    "T0": {"CO+O(0)", "CO+O(2)", "O2_ads(0)", "CO_ads"},
    "T1": {"CO+O(1)", "CO+O(3)", "O2_ads(1)"},
}


@dataclass(frozen=True)
class Table1Row:
    """One generated reaction type in Table I form."""

    group: str
    orientation: int
    name: str
    triples: frozenset
    rendered: str

    def matches_paper(self) -> bool:
        """Does this generated row equal the corresponding printed Table I row?"""
        expected = PAPER_TABLE1.get(self.group, {}).get(self.orientation)
        return expected is not None and frozenset(expected) == self.triples


def table1_rows() -> list[Table1Row]:
    """Generate Table I from :func:`repro.models.zgb.ziff_model`."""
    model = ziff_model()
    rows = []
    for rt in model.reaction_types:
        if "(" in rt.name:
            orientation = int(rt.name.split("(")[1].rstrip(")"))
        else:
            orientation = 0
        triples = frozenset(
            (c.offset, c.src, c.tg) for c in rt.changes
        )
        rows.append(
            Table1Row(
                group=rt.group,
                orientation=orientation,
                name=rt.name,
                triples=triples,
                rendered=rt.describe(),
            )
        )
    return rows


def table1_report(rows: list[Table1Row] | None = None) -> str:
    """Render Table I (with a paper-match flag per row)."""
    rows = rows or table1_rows()
    body = [
        (r.group, r.orientation, r.rendered, "ok" if r.matches_paper() else "MISMATCH")
        for r in rows
    ]
    return "Table I - reaction types of the CO-oxidation model\n" + format_table(
        ["group", "orient", "transformation at s", "vs paper"], body
    )


def table2_split() -> TypeSplit:
    """Generate Table II's type split from the model."""
    return split_by_orientation(ziff_model())


def table2_report(split: TypeSplit | None = None) -> str:
    """Render Table II (with a paper-match flag per subset)."""
    split = split or table2_split()
    model = split.model
    body = []
    for s in split.subsets:
        names = {model.reaction_types[i].name for i in s.type_indices}
        expected = PAPER_TABLE2.get(f"T{s.index}")
        flag = "ok" if expected == names else "MISMATCH"
        body.append((f"T{s.index}", ", ".join(sorted(names)), f"{s.total_rate:g}", flag))
    return "Table II - reaction-type subsets\n" + format_table(
        ["subset", "members", "K_Tj", "vs paper"], body
    )
