"""The desk-scale non-noetherianity witness computation.

For a generator-degree bound d and N > d, take omega = (1, ..., 1) with N
ones.  Three facts are checked computationally:

  (a) M_omega is not a product of positive-degree invariants (it sits in
      the predicted minimal-generator list, all entries being below p);
  (b) M_omega^p = M_{p*omega} carries a verified certificate of membership
      in the generator algebra;
  (c) M_{p*omega} is outside the degree-pN slice of the ideal generated by
      the column-closure spans of M_alpha^p over all |alpha| <= d.

The splitting replay ties (a) and (c) together: applying the Frobenius
splitting to every element of the ideal slice lands inside the span of
products of positive-degree invariants, so if M_{p*omega} were in the
slice, M_omega would violate (a).  The replay is computed row by row and
reported alongside the direct checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .certify import Certificate, certify_pth_power, verify
from .exptuples import scale
from .invariants import power_sum
from .operators import frobenius_split
from .spans import (
    DEFAULT_CAP, ideal_truncation_span, in_p_algebra, square_span,
)


@dataclass
class WitnessReport:
    """Outcome of one witness run; `passed` requires all three checks."""

    p: int
    gen_degree: int
    n_ones: int
    width: int
    degenerate: bool
    not_in_square: bool
    pth_power_certified: bool
    oracle_agrees: bool
    not_in_ideal_slice: bool
    not_in_ideal_slice_no_gens: bool
    ideal_slice_dim: int
    ideal_slice_dim_no_gens: int
    square_dim: int
    splitting_rows_checked: int
    splitting_replay_ok: bool
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.not_in_square
            and self.pth_power_certified
            and self.not_in_ideal_slice
        )

    def to_json_obj(self) -> dict:
        return {
            "p": self.p,
            "gen_degree": self.gen_degree,
            "n_ones": self.n_ones,
            "width": self.width,
            "degenerate": self.degenerate,
            "checks": {
                "not_in_square": self.not_in_square,
                "pth_power_certified": self.pth_power_certified,
                "oracle_agrees": self.oracle_agrees,
                "not_in_ideal_slice": self.not_in_ideal_slice,
                "not_in_ideal_slice_no_gens": self.not_in_ideal_slice_no_gens,
                "splitting_replay_ok": self.splitting_replay_ok,
            },
            "dims": {
                "square": self.square_dim,
                "ideal_slice": self.ideal_slice_dim,
                "ideal_slice_no_gens": self.ideal_slice_dim_no_gens,
            },
            "splitting_rows_checked": self.splitting_rows_checked,
            "passed": self.passed,
            "notes": self.notes,
        }


def witness_check(gen_degree: int, n_ones: int, p: int,
                  width: int | None = None,
                  cap: int = DEFAULT_CAP) -> tuple[WitnessReport, Certificate]:
    """Run the witness computation for omega = (1,)*n_ones.

    Requires width >= n_ones.  With n_ones <= gen_degree the run is
    degenerate: M_{p*omega} is itself inside the ideal slice, so check (c)
    is expected to fail; the report flags this instead of refusing, since
    the degenerate run is a useful control.
    """
    if n_ones < 1:
        raise ValueError("need at least one column in omega")
    n = n_ones if width is None else width
    if n < n_ones:
        raise ValueError(f"width {n} cannot hold {n_ones} ones")
    degenerate = not (n_ones > gen_degree)
    notes = []
    if degenerate:
        notes.append(
            f"degenerate control: N={n_ones} <= d={gen_degree}, the slice "
            "contains the target by construction"
        )
    omega = (1,) * n_ones

    # (a) the witness power sum is not a product of positive-degree pieces
    sq = square_span(n_ones, n, p, cap=cap)
    m_omega = power_sum(omega, p, n)
    not_in_square = sq.contains(m_omega) is None

    # (b) its p-th power carries a verified membership certificate
    cert = certify_pth_power(omega, p, width=n, verify_on_build=False)
    certified = verify(cert)
    target = power_sum(scale(omega, p), p, n)
    oracle = in_p_algebra(target, cap=cap) is not None

    # (c) the p-th power stays outside the ideal slice at degree p*N
    slice_with = ideal_truncation_span(
        gen_degree, p * n_ones, n, p, include_generators=True, cap=cap
    )
    # generators have degree p*|alpha| <= p*d: below p*N they add nothing
    slice_without = slice_with
    if degenerate:
        slice_without = ideal_truncation_span(
            gen_degree, p * n_ones, n, p, include_generators=False, cap=cap
        )
    not_in_with = slice_with.contains(target) is None
    not_in_without = slice_without.contains(target) is None

    # splitting replay: the image of the slice under the splitting must sit
    # inside the square span one degree level down
    replay_ok = True
    rows_checked = 0
    for row in slice_with.row_polys():
        img = frobenius_split(row)
        rows_checked += 1
        if img.is_zero:
            continue
        if sq.contains(img) is None:
            replay_ok = False
            notes.append(
                "splitting image of an ideal-slice row escaped the square "
                "span; replay argument does not close"
            )
            break
    if replay_ok and not_in_square and not not_in_with:
        # the two computations contradict each other; surface loudly
        notes.append(
            "inconsistency: target inside the slice yet its splitting "
            "argument forbids it"
        )

    report = WitnessReport(
        p=p, gen_degree=gen_degree, n_ones=n_ones, width=n,
        degenerate=degenerate,
        not_in_square=not_in_square,
        pth_power_certified=certified,
        oracle_agrees=oracle,
        not_in_ideal_slice=not_in_with,
        not_in_ideal_slice_no_gens=not_in_without,
        ideal_slice_dim=slice_with.dim,
        ideal_slice_dim_no_gens=slice_without.dim,
        square_dim=sq.dim,
        splitting_rows_checked=rows_checked,
        splitting_replay_ok=replay_ok,
        notes=notes,
    )
    return report, cert
