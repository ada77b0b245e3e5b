"""``python -m repro lint`` — the static verification CI gate.

Default invocation lints every registered model: sanity pass, then the
symbolic conflict-freedom proof for the model's canonical modular
tiling (``find_modular_tiling``).  Exit status 0 iff no error-severity
diagnostic fired (``--strict`` also fails on warnings); a malformed
``--tiling`` or ``--shape``, or one whose dimension does not match the
model, exits 2 with one line on stderr before anything is linted.

Targeted runs::

    python -m repro lint --model ziff                  # one model
    python -m repro lint --model ziff --tiling 5:1,2   # explicit tiling
    python -m repro lint --model ziff --tiling 5:1,2 --shape 7x7
    python -m repro lint --scenarios --strict          # shipped scenarios only
    python -m repro lint --json                        # machine-readable
    python -m repro lint --list-codes                  # error-code table

``--shape`` switches the proof from "all aligned lattice sizes" to the
exact borrow analysis for one finite periodic shape — use it to check
a lattice whose sides are *not* multiples of the tiling modulus.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from ..core.model import Model
from .diagnostics import LintReport, code_table
from .engine import run_lint

__all__ = ["MODEL_REGISTRY", "main", "add_lint_arguments"]


def _ziff() -> tuple[Model, list[str] | None]:
    from ..models import ziff_model

    return ziff_model(), None


def _zgb() -> tuple[Model, list[str] | None]:
    from ..models import zgb_model

    return zgb_model(0.5), None


def _diffusion_1d() -> tuple[Model, list[str] | None]:
    from ..models import diffusion_model_1d

    # experiments start from a random gas: vacancies and particles
    return diffusion_model_1d(), ["*", "A"]


def _diffusion_2d() -> tuple[Model, list[str] | None]:
    from ..models import diffusion_model_2d

    return diffusion_model_2d(), ["*", "A"]


def _ising() -> tuple[Model, list[str] | None]:
    from ..models import ising_model_2d

    # both spin species exist in any initial configuration
    return ising_model_2d(beta=0.4), ["-", "+"]


def _single_file() -> tuple[Model, list[str] | None]:
    from ..models import single_file_model

    # tracer experiments place equally spaced particles on the ring
    return single_file_model(), ["*", "A"]


def _pt100() -> tuple[Model, list[str] | None]:
    from ..models import pt100_model

    # simulations start from the clean hex phase; CO arrives by adsorption
    return pt100_model(), ["h"]


#: name -> factory returning ``(model, initial_species | None)``
MODEL_REGISTRY: dict[str, Callable[[], tuple[Model, list[str] | None]]] = {
    "ziff": _ziff,
    "zgb": _zgb,
    "diffusion-1d": _diffusion_1d,
    "diffusion-2d": _diffusion_2d,
    "ising": _ising,
    "single-file": _single_file,
    "pt100": _pt100,
}


def _parse_tiling(spec: str) -> tuple[int, tuple[int, ...]]:
    """Parse ``"m:c0,c1,..."`` (e.g. ``"5:1,2"``) with ``m >= 1``."""
    try:
        m_str, _, coeff_str = spec.partition(":")
        m = int(m_str)
        coeffs = tuple(int(c) for c in coeff_str.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"tiling spec {spec!r} is not of the form 'm:c0,c1' (e.g. '5:1,2')"
        ) from None
    if m < 1:
        raise argparse.ArgumentTypeError(
            f"tiling spec {spec!r}: modulus m must be >= 1, got {m}"
        )
    return m, coeffs


def _parse_shape(spec: str) -> tuple[int, ...]:
    """Parse ``"LxM"`` / ``"L,M"`` (e.g. ``"7x7"``) with sides ``>= 1``."""
    try:
        shape = tuple(int(s) for s in spec.replace("x", ",").split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shape spec {spec!r} is not of the form 'LxM' (e.g. '7x7')"
        ) from None
    if min(shape) < 1:
        raise argparse.ArgumentTypeError(
            f"shape spec {spec!r}: every side must be >= 1"
        )
    return shape


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint flags to a parser (shared with ``repro.__main__``)."""
    parser.add_argument(
        "--model",
        choices=sorted(MODEL_REGISTRY),
        help="lint a single model (default: all registered models)",
    )
    parser.add_argument(
        "--tiling",
        type=_parse_tiling,
        metavar="M:C0,C1",
        help="modular tiling to verify, e.g. '5:1,2' (default: the "
        "canonical tiling found by find_modular_tiling)",
    )
    parser.add_argument(
        "--shape",
        type=_parse_shape,
        metavar="LxM",
        help="check one finite periodic lattice shape (default: prove "
        "for all aligned sizes symbolically)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    parser.add_argument(
        "--strict", action="store_true", help="treat warnings as failures"
    )
    parser.add_argument(
        "--scenarios",
        action="store_true",
        help="preflight every shipped scenario file (model sanity + "
        "partition proof for parallel engine kinds)",
    )
    all_codes = code_table()
    parser.add_argument(
        "--codes",
        "--list-codes",
        action="store_true",
        dest="codes",
        help=f"print the diagnostic code table "
        f"({all_codes[0][0]}..{all_codes[-1][0]})",
    )


def _canonical_tiling(model: Model) -> tuple[int, tuple[int, ...]] | None:
    from ..partition.tilings import find_modular_tiling

    try:
        return find_modular_tiling(model)
    except ValueError:
        return None


def run(args: argparse.Namespace) -> int:
    """Execute the lint command for parsed arguments; returns exit code."""
    if args.codes:
        for code, sev, slug, desc in code_table():
            print(f"{code}  {sev:<7s} {slug:<30s} {desc}")
        return 0

    report = LintReport()
    if args.scenarios:
        from ..scenario import ScenarioError, lint_scenario, scenario_registry
        from .engine import LintError

        try:
            registry = scenario_registry()
        except ScenarioError as exc:
            print(exc.args[0] if exc.args else exc, file=sys.stderr)
            return 2
        for name in sorted(registry):
            spec = registry[name]
            try:
                scenario_report = lint_scenario(spec)
            except LintError as exc:
                report.extend(exc.report)
            except ScenarioError as exc:
                print(
                    f"scenario {name}: {exc.args[0] if exc.args else exc}",
                    file=sys.stderr,
                )
                return 2
            else:
                report.extend(scenario_report)
                report.note(
                    f"scenario {name!r} ({spec.source}): preflight clean, "
                    f"digest {spec.short_digest()}"
                )
    else:
        names = [args.model] if args.model else sorted(MODEL_REGISTRY)
        models = [(name, *MODEL_REGISTRY[name]()) for name in names]
        given = {"--tiling": args.tiling and args.tiling[1], "--shape": args.shape}
        for name, model, _ in models:
            for flag, spec in given.items():
                if spec and len(spec) != model.ndim:
                    print(
                        f"{flag} has {len(spec)} dimension(s) but model "
                        f"{name!r} is {model.ndim}-d",
                        file=sys.stderr,
                    )
                    return 2
        for name, model, initial in models:
            tiling = args.tiling if args.tiling else _canonical_tiling(model)
            if tiling is None:
                report.note(
                    f"model {name}: no modular tiling found (skipping proof)"
                )
            report.extend(
                run_lint(
                    model, tiling=tiling, shape=args.shape,
                    initial_species=initial,
                )
            )

    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.ok(strict=args.strict) else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.lint.cli``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="static conflict/race proofs for partitions, kernels, models",
    )
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BrokenPipeError:  # pragma: no cover
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
