"""Command-line interface: analyze | series | phase | simulate | selftest.

Input is a JSON description of the free product (factors, weights, options);
outputs are JSON or CSV with floats printed to 12 significant digits and
infinities rendered as the string "inf".  Exit codes: 2 for configuration
errors, 3 for numeric failures, 4 when phase analysis is asked for a product
with more than two factors.

`simulate` prints an exact column from word convolution up to n = 14.  The
number of words it enumerates grows geometrically with n (about 16-fold per
two steps on Z5*Z6), so the column stops at the largest n whose words fit
mc.EXACT_COLUMN_BYTES; a shorter column is reported on stderr, and the exit
code stays 0.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import classify, mc, phase
from .errors import ConfigError, FprwError
from .factors import ExplicitSeries, FiniteGroup, HomTree, LatticeNN, cyclic_group
from .product import (
    FreeProductSpec,
    analyze_product,
    factor_analytics,
    normalized_green_series,
    product_green_series,
    product_period,
)

_DEFAULTS = {"order": 512, "grid": 512, "steps": 100, "walks": 10_000, "seed": 0}
_EXACT_COLUMN_ORDER = 14


# ---------------------------------------------------------------------------
# config parsing


def _reject_unknown(obj: dict, allowed, where: str):
    extra = set(obj) - set(allowed)
    if extra:
        raise ConfigError(f"unknown field(s) {sorted(extra)} in {where}")


def _parse_number(value, where: str) -> float:
    if value == "inf":
        return math.inf
    if isinstance(value, (int, float)):
        return float(value)
    raise ConfigError(f"{where} must be a number or \"inf\"")


def _parse_int(value, where: str, minimum=None) -> int:
    """A JSON integer, or a float with an integral value; not a bool or a
    string, and nothing that `int` would truncate."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    n = int(value)
    if minimum is not None and n < minimum:
        raise ConfigError(f"{where} must be at least {minimum}, got {n}")
    return n


def parse_factor(obj: dict, idx: int):
    where = f"factors[{idx}]"
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigError(f"{where} must be an object with a 'type' field")
    try:
        return _build_factor(obj, where)
    except KeyError as exc:
        raise ConfigError(f"{where}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: malformed {obj['type']} factor ({exc})") from None


def _build_factor(obj: dict, where: str):
    kind = obj["type"]
    if kind == "lattice":
        _reject_unknown(obj, {"type", "dim", "beta", "p"}, where)
        if "dim" in obj:
            if "beta" in obj or "p" in obj:
                raise ConfigError(f"{where}: give either dim or beta/p, not both")
            return LatticeNN.simple(_parse_int(obj["dim"], f"{where}.dim", 1))
        return LatticeNN(beta=tuple(obj["beta"]), p=tuple(obj["p"]))
    if kind == "cyclic":
        _reject_unknown(obj, {"type", "n", "mu"}, where)
        return cyclic_group(_parse_int(obj["n"], f"{where}.n", 1), tuple(obj["mu"]))
    if kind == "finite":
        _reject_unknown(obj, {"type", "P", "id", "table"}, where)
        return FiniteGroup(
            P=tuple(tuple(r) for r in obj["P"]),
            id=_parse_int(obj["id"], f"{where}.id"),
            table=tuple(tuple(r) for r in obj["table"]),
        )
    if kind == "tree":
        _reject_unknown(obj, {"type", "q"}, where)
        return HomTree(q=_parse_int(obj["q"], f"{where}.q"))
    if kind == "explicit":
        _reject_unknown(
            obj,
            {"type", "coeffs", "radius", "g_at_r", "gprime_at_r", "sing", "period"},
            where,
        )
        sing = obj.get("sing")
        if sing is not None and len(sing) != 2:
            raise ConfigError(f"{where}.sing must be [q, k]")
        return ExplicitSeries(
            coeffs=tuple(obj["coeffs"]),
            radius=float(obj["radius"]),
            g_at_r=_parse_number(obj["g_at_r"], f"{where}.g_at_r"),
            gprime_at_r=_parse_number(obj["gprime_at_r"], f"{where}.gprime_at_r"),
            sing=None if sing is None else (float(sing[0]), _parse_int(sing[1], f"{where}.sing[1]", 0)),
            period=_parse_int(obj["period"], f"{where}.period"),
        )
    raise ConfigError(f"{where}: unknown factor type {kind!r}")


def load_config(path: str):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(raw, {"factors", "weights", "options"}, "config")
    factors = raw.get("factors")
    weights = raw.get("weights")
    if not isinstance(factors, list) or not isinstance(weights, list):
        raise ConfigError("config needs 'factors' and 'weights' lists")
    specs = tuple(parse_factor(f, i) for i, f in enumerate(factors))
    try:
        weights = tuple(float(w) for w in weights)
    except (TypeError, ValueError):
        raise ConfigError(f"weights must be numbers, got {weights!r}") from None
    wsum = sum(weights)
    if not (wsum > 0 and math.isfinite(wsum)):
        raise ConfigError("weights must have a positive finite sum")
    if abs(wsum - 1.0) > 1e-9:
        print(f"warning: weights sum to {wsum:g}; normalizing", file=sys.stderr)
    options = dict(_DEFAULTS)
    user_opts = raw.get("options", {})
    if not isinstance(user_opts, dict):
        raise ConfigError("options must be a JSON object")
    _reject_unknown(user_opts, set(_DEFAULTS), "options")
    for k, v in user_opts.items():
        options[k] = _parse_int(v, f"options.{k}", None if k == "seed" else 0)
    return FreeProductSpec(specs, weights), options


# ---------------------------------------------------------------------------
# presentation


def _present(value):
    """12-significant-digit floats; infinities as the string 'inf'."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _present(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_present(v) for v in value]
    return value


def _fmt(value) -> str:
    if isinstance(value, float):
        return "inf" if math.isinf(value) else f"{value:.12g}"
    return str(value)


def _write(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _factor_report(spec, an):
    sing = None
    if an.sing is not None:
        sing = {"q": an.sing.q, "k": an.sing.k, "lambda": an.sing.lam, "kappa": an.sing.kappa}
    return {
        "type": type(spec).__name__,
        "radius": an.radius,
        "g_at_radius": an.g_at_r,
        "gprime_at_radius": an.gprime_at_r,
        "theta": an.theta,
        "period": an.period,
        "psi_at_radius": an.psi_at_radius,
        "singularity": sing,
    }


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(spec: FreeProductSpec, options, args) -> str:
    ans = factor_analytics(spec)
    pa = analyze_product(spec)
    law = classify.law_of_analysis(pa, ans)
    warnings = []
    if pa.degenerate:
        warnings.append("degenerate recurrent product (Z/2Z)*(Z/2Z)")
    elif law.confidence == classify.NEAR_CRITICAL:
        warnings.append(
            "Psi(theta-bar) inside the near-critical band; the law is "
            "discontinuous nearby and float noise may flip the branch"
        )
    report = {
        "factors": [_factor_report(f, an) for f, an in zip(spec.factors, ans)],
        "weights": list(spec.weights),
        "theta_bar": pa.theta_bar,
        "argmin_set": list(pa.argmin_set),
        "psi_bar": pa.psi_bar,
        "radius": pa.radius,
        "spectral_radius": 1.0 / pa.radius,
        "g_at_radius": pa.g_at_radius,
        "period": pa.period,
        "degenerate": pa.degenerate,
        "law": {
            "kind": law.kind,
            "factor_index": law.factor_index,
            "lambda": law.lam,
            "kappa": law.kappa,
            "label": law.law_string(),
            "confidence": law.confidence,
        },
        "sqrt_coefficient": None if pa.sqrt_coeff is None else list(pa.sqrt_coeff),
        "warnings": warnings,
    }
    return json.dumps(_present(report), indent=2) + "\n"


def cmd_series(spec: FreeProductSpec, options, args) -> str:
    order = args.order if args.order is not None else options["order"]
    g = product_green_series(spec, order)
    radius, scaled = normalized_green_series(spec, order)
    delta = product_period(spec)
    if args.format == "json":
        payload = {
            "radius": radius,
            "period": delta,
            "coefficients": list(g.coeffs),
        }
        return json.dumps(_present(payload), indent=2) + "\n"
    lines = [f"# radius={_fmt(radius)} period={delta}", "n,mu_n,mu_n_radius_n"]
    for n in range(order + 1):
        lines.append(f"{n},{_fmt(g[n])},{_fmt(scaled[n])}")
    return "\n".join(lines) + "\n"


def cmd_phase(spec: FreeProductSpec, options, args) -> str:
    if spec.m != 2:
        raise _PhaseArity("phase analysis is defined for two factors only")
    grid = args.grid if args.grid is not None else options["grid"]
    diag = phase.sweep(spec, grid_size=grid)
    if args.format == "json":
        payload = {
            "alpha_c": diag.alpha_c,
            "alpha_low": diag.alpha_low,
            "alpha_high": diag.alpha_high,
            "case": diag.case,
            "grid": [
                {
                    "alpha1": p.alpha1,
                    "upsilon": p.upsilon,
                    "kind": p.kind,
                    "factor_index": p.factor_index,
                    "lambda": p.lam,
                    "kappa": p.kappa,
                    "near_critical": p.near_critical,
                }
                for p in diag.grid
            ],
        }
        return json.dumps(_present(payload), indent=2) + "\n"
    lines = [
        f"# case={diag.case} alpha_c={_fmt(diag.alpha_c) if diag.alpha_c is not None else 'none'}"
        f" alpha_low={_fmt(diag.alpha_low) if diag.alpha_low is not None else 'none'}"
        f" alpha_high={_fmt(diag.alpha_high) if diag.alpha_high is not None else 'none'}",
        "alpha1,upsilon,law,near_critical",
    ]
    for p in diag.grid:
        label = f"n^-{p.lam:g}" if p.kappa == 0 else f"n^-{p.lam:g}*log^{p.kappa}(n)"
        lines.append(f"{_fmt(p.alpha1)},{_fmt(p.upsilon)},{label},{int(p.near_critical)}")
    return "\n".join(lines) + "\n"


class _PhaseArity(FprwError):
    pass


def cmd_simulate(spec: FreeProductSpec, options, args) -> str:
    steps = args.steps if args.steps is not None else options["steps"]
    walks = args.walks if args.walks is not None else options["walks"]
    seed = args.seed if args.seed is not None else options["seed"]
    if not -(2**63) <= seed < 2**63:
        raise ConfigError(f"seed must lie in [-2^63, 2^63) for the Philox key, got {seed}")
    result = mc.simulate(spec, steps=steps, walks=walks, seed=seed)
    wanted = min(steps, _EXACT_COLUMN_ORDER)
    exact_order = mc.exact_column_order(spec, wanted)
    if exact_order < wanted:
        print(
            f"warning: exact column stops at n = {exact_order}, not {wanted}: the words "
            f"of longer orders need more than {mc.EXACT_COLUMN_BYTES >> 20} MiB",
            file=sys.stderr,
        )
    exact = mc.bfs_convolution(spec, exact_order) if steps > 0 else None
    freq = result.frequencies()
    rows = []
    for n in range(1, steps + 1):
        row = {"n": n, "empirical": float(freq[n])}
        if exact is not None and n <= exact_order:
            p = exact[n]
            sigma = math.sqrt(max(p * (1.0 - p), 1e-300) / walks)
            row["exact"] = p
            row["z"] = (float(freq[n]) - p) / sigma if sigma > 0 else 0.0
        else:
            row["exact"] = None
            row["z"] = None
        rows.append(row)
    if args.format == "json":
        payload = {"steps": steps, "walks": walks, "seed": seed, "profile": rows}
        return json.dumps(_present(payload), indent=2) + "\n"
    lines = [f"# walks={walks} seed={seed}", "n,empirical,exact,z"]
    for row in rows:
        exact_s = _fmt(row["exact"]) if row["exact"] is not None else ""
        z_s = _fmt(row["z"]) if row["z"] is not None else ""
        lines.append(f"{row['n']},{_fmt(row['empirical'])},{exact_s},{z_s}")
    return "\n".join(lines) + "\n"


def cmd_selftest(args) -> int:
    from . import selftest

    results = selftest.run(args.criteria)
    for r in results:
        print(selftest.format_line(r))
    return 0 if all(r.passed for r in results) else 1


def _count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {n}")
    return n


def _criteria(text: str) -> list:
    from . import selftest

    last = len(selftest.CRITERIA)
    parts = text.split(",")
    if not all(c.strip().isdecimal() and 1 <= int(c) <= last for c in parts):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated criteria in 1-{last}, got {text!r}"
        )
    return sorted({int(c) for c in parts})


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fprw",
        description="random-walk asymptotics on free products of groups",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "csv")):
        p.add_argument("--config", required=True, help="JSON product description")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=formats, default="json")

    p = sub.add_parser("analyze", help="classify the return-probability law")
    common(p, formats=("json",))
    p = sub.add_parser(
        "series",
        help="exact return-probability series",
        description="Exact return probabilities mu_n of the product walk.  The CSV "
        "columns are n, mu_n and mu_n radius^n; the last is solved for directly, "
        "so it stays a normal float where mu_n itself underflows.",
    )
    common(p)
    p.add_argument("--order", type=_count, default=None)
    p.set_defaults(format="csv")
    p = sub.add_parser("phase", help="phase diagram in the first weight")
    common(p)
    p.add_argument("--grid", type=_count, default=None)
    p = sub.add_parser(
        "simulate",
        help="seeded Monte Carlo return profile",
        description="Seeded Monte Carlo return profile beside the exact return "
        f"probabilities from word convolution for n <= {_EXACT_COLUMN_ORDER}.  The exact column stops "
        "earlier, with a warning on stderr, where the words to enumerate would not "
        f"fit {mc.EXACT_COLUMN_BYTES >> 20} MiB: their number grows geometrically "
        "with n, fastest on high-dimensional lattices.",
    )
    common(p)
    p.add_argument("--steps", type=_count, default=None)
    p.add_argument("--walks", type=_count, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(format="csv")
    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument(
        "--criteria", type=_criteria, default=None, help="comma-separated subset, e.g. 1,2,9"
    )
    return ap


# built once, on import: argparse loads gettext's locale module on its first
# parser, which would otherwise happen inside the first command
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command == "selftest":
        return cmd_selftest(args)
    try:
        spec, options = load_config(args.config)
        if args.command == "analyze":
            text = cmd_analyze(spec, options, args)
        elif args.command == "series":
            text = cmd_series(spec, options, args)
        elif args.command == "phase":
            text = cmd_phase(spec, options, args)
        elif args.command == "simulate":
            text = cmd_simulate(spec, options, args)
        else:  # pragma: no cover
            raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _PhaseArity as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except FprwError as exc:
        print(f"numeric failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    _write(text, args.out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
