"""Command-line front end.

Subcommands: transduce, possibility, region, credal, bsa, coverage, table1.
Exit codes: 0 all requested checks pass, 1 a check failed (including
content-level errors such as a non-consonant contour, non-finite data or
a predictive too diffuse for the support truncation), 2 usage error,
3 I/O error.  ``--json`` switches stdout to machine-readable JSON;
rationals always render as "num/den" strings.  Randomized subcommands
require an explicit --seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from math import isfinite

from ._num import fmt_scalar, to_float, tolerance
from .bsa import GammaParams, PredictiveFGCS, bsa_ihdr_report, posterior_update
from .credal import (
    ProbabilityVector,
    extreme_points,
    in_credal_set,
    lower_entropy,
    sample_credal,
    ternary_coords,
)
from .errors import FixtureMismatch, TruncationInsufficient
from .harness import ProcessSpec, run_coverage
from .outcome import Event, FiniteOutcomeSpace, GridOutcomeSpace, enumerate_events, space_from_json
from .possibility import (
    MassFunction,
    check_k_alternating,
    check_k_monotone,
    cloud_gamma,
    focal_chain,
    focal_elements,
    lower_prob,
    mass_from_belief,
    upper_prob,
)
from .region import cpr, ihdr_cut, ihdr_intersection, prop1_check, region_size
from .transducer import (
    Contour,
    NonconformityMeasure,
    adjust_double_prime,
    adjust_prime,
    transduce_grid,
)

_TABLE1_DATA = ("A",) * 20 + ("B",) * 30 + ("C",) * 50
_TABLE1_SEED = 101
_TABLE1_SAMPLES = 20


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consonance",
        description="conformal transducers, possibility measures, credal sets",
    )
    parser.add_argument("--json", action="store_true", help="JSON output on stdout")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("transduce", help="contour from data over an outcome space")
    p.add_argument("--data", required=True, help="CSV with header y")
    p.add_argument("--space", required=True, help="outcome-space JSON")
    p.add_argument("--psi", required=True, choices=["mean-abs", "one-minus-emp"])
    p.add_argument("--adjust", choices=["none", "prime", "double-prime"], default="none")
    p.add_argument("--out", required=True, help="contour JSON destination")

    p = sub.add_parser("possibility", help="set functions induced by a contour")
    p.add_argument("action", choices=["upper", "lower", "mass", "focal", "check-alt", "check-mon", "cloud"])
    p.add_argument("k", nargs="?", type=int, help="order for check-alt/check-mon")
    p.add_argument("--contour", required=True)
    p.add_argument("--event", help="comma-separated labels (or indices on a grid)")

    p = sub.add_parser("region", help="prediction regions and their equivalence")
    p.add_argument("action", nargs="?", choices=["prop1"])
    p.add_argument("--contour", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--kind", choices=["cpr", "cut", "intersection"], default="cpr")

    p = sub.add_parser("credal", help="credal-set queries")
    p.add_argument("action", choices=["check", "extremes", "entropy", "sample", "ternary"])
    p.add_argument("--contour", required=True)
    p.add_argument("--p", help="comma-separated probability vector")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="CSV destination for ternary coordinates")

    p = sub.add_parser("bsa", help="predictive envelope and smallest covering set")
    p.add_argument("--priors", required=True, help='JSON like [{"a":2,"b":1},...]')
    p.add_argument("--data", help="counts CSV with header y")
    p.add_argument("--alpha", type=float, required=True)

    p = sub.add_parser("coverage", help="Monte-Carlo coverage check")
    p.add_argument("--spec", required=True, help="process JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--psi", choices=["mean-abs", "one-minus-emp"])
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="CSV destination for the report row")

    sub.add_parser("table1", help="reproduce the bundled three-label reference artifact")
    return parser


def parse_args(argv) -> argparse.Namespace:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.subcommand in ("region", "bsa", "coverage") and ns.alpha is not None:
        lo_open = ns.subcommand == "bsa"
        bad = not (0 < ns.alpha < 1) if lo_open else not (0 <= ns.alpha <= 1)
        if bad:
            parser.error(f"--alpha {ns.alpha} out of range")
    if ns.subcommand == "region" and ns.action is None and ns.alpha is None:
        parser.error("region needs --alpha (or the prop1 action)")
    if ns.subcommand == "possibility" and ns.action in ("check-alt", "check-mon") and ns.k is None:
        parser.error(f"{ns.action} needs an order k")
    if ns.subcommand == "credal":
        if ns.action == "check" and not ns.p:
            parser.error("credal check needs --p")
        if ns.action == "sample" and (ns.count is None or ns.seed is None):
            parser.error("credal sample needs --count and --seed")
        if ns.action == "ternary" and not ns.out:
            parser.error("credal ternary needs --out")
    return ns


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _read_data_csv(path: str, as_float: bool) -> tuple:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["y"]:
        raise ValueError(f"{path}: expected a single-column CSV with header y")
    cells = [r[0] for r in rows[1:] if r]
    if not as_float:
        return tuple(cells)
    values = tuple(float(c) for c in cells)
    if not all(map(isfinite, values)):
        raise ValueError(f"{path}: data must be finite numbers")
    return values


def _emit(payload: dict, as_json: bool, lines):
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _parse_event(c: Contour, text: str) -> Event:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if isinstance(c.space, FiniteOutcomeSpace):
        return Event.from_labels(c.space, parts)
    return Event.from_indices((int(p) for p in parts), c.size)


def _event_json(ev: Event, c: Contour):
    if isinstance(c.space, FiniteOutcomeSpace):
        return ev.to_labels(c.space)
    return list(ev.indices)


def _cmd_transduce(ns) -> int:
    space = space_from_json(_read_json(ns.space))
    if ns.psi == "mean-abs" and not isinstance(space, GridOutcomeSpace):
        raise ValueError("--psi mean-abs needs a grid space")
    data = _read_data_csv(ns.data, as_float=isinstance(space, GridOutcomeSpace))
    psi = NonconformityMeasure.from_name(ns.psi)
    contour = transduce_grid(data, space, psi).contour
    if ns.adjust == "prime":
        contour = adjust_prime(contour)
    elif ns.adjust == "double-prime":
        contour = adjust_double_prime(contour)
    with open(ns.out, "w") as fh:
        json.dump(contour.to_json(), fh, indent=2)
        fh.write("\n")
    payload = {"n": len(data), "out": ns.out, "contour": contour.to_json()}
    _emit(payload, ns.json, [f"wrote contour for n={len(data)} to {ns.out}"])
    return 0


def _chain_mass(c: Contour) -> MassFunction:
    """The contour's Moebius masses, read off its level chain at any K.

    As in :func:`mass_from_belief`, a float mass within tolerance of 0 is
    dropped.
    """
    tol = tolerance(c.values)
    return MassFunction(c.size, {ev: m for ev, m in focal_chain(c) if m > tol})


def _cmd_possibility(ns) -> int:
    contour = Contour.from_json(_read_json(ns.contour))
    if ns.action in ("upper", "lower"):
        fn = upper_prob if ns.action == "upper" else lower_prob
        if ns.event:
            ev = _parse_event(contour, ns.event)
            val = fn(contour, ev)
            payload = {"event": _event_json(ev, contour), ns.action: fmt_scalar(val)}
            _emit(payload, ns.json, [f"{ns.action}({ns.event}) = {fmt_scalar(val)}"])
            return 0
        rows = [
            {"event": _event_json(ev, contour), ns.action: fmt_scalar(fn(contour, ev))}
            for ev in enumerate_events(contour.space)
        ]
        _emit({ns.action: rows}, ns.json, [f"{r['event']}: {r[ns.action]}" for r in rows])
        return 0
    if ns.action == "mass":
        mass = _chain_mass(contour)
        rows = [
            {"event": _event_json(ev, contour), "mass": fmt_scalar(m)}
            for ev, m in sorted(mass.masses.items(), key=lambda kv: (len(kv[0]), kv[0].indices))
        ]
        _emit({"mass": rows}, ns.json, [f"{r['event']}: {r['mass']}" for r in rows])
        return 0
    if ns.action == "focal":
        focal = focal_elements(_chain_mass(contour))
        payload = {
            "elements": [_event_json(ev, contour) for ev in focal.elements],
            "nested": focal.nested,
        }
        _emit(payload, ns.json, [f"focal: {payload['elements']}", f"nested: {focal.nested}"])
        return 0
    if ns.action in ("check-alt", "check-mon"):
        if ns.action == "check-alt":
            res = check_k_alternating(lambda ev: upper_prob(contour, ev), ns.k, contour.space)
        else:
            res = check_k_monotone(lambda ev: lower_prob(contour, ev), ns.k, contour.space)
        payload = {"ok": res.ok, "k": res.k, "kind": res.kind}
        lines = [f"{res.kind} order {res.k}: {'ok' if res.ok else 'VIOLATED'}"]
        if res.witness:
            payload["witness"] = {
                "target": _event_json(res.witness.target, contour),
                "collection": [_event_json(e, contour) for e in res.witness.collection],
                "lhs": fmt_scalar(res.witness.lhs),
                "rhs": fmt_scalar(res.witness.rhs),
            }
            lines.append(f"witness target {payload['witness']['target']}")
        _emit(payload, ns.json, lines)
        return 0 if res.ok else 1
    cloud = cloud_gamma(contour)
    payload = {"gamma": cloud.gamma.to_json(), "pi": cloud.pi.to_json()}
    _emit(payload, ns.json, [f"gamma: {payload['gamma']['pi']}", f"pi: {payload['pi']['pi']}"])
    return 0


def _cmd_region(ns) -> int:
    contour = Contour.from_json(_read_json(ns.contour))
    if ns.action == "prop1":
        report = prop1_check(contour)
        payload = {
            "passed": report.passed,
            "alphas": [fmt_scalar(a) for a in report.alphas],
            "failures": [
                {
                    "alpha": fmt_scalar(f.alpha),
                    "cut": _event_json(f.cut_event, contour),
                    "intersection": _event_json(f.intersection_event, contour),
                }
                for f in report.failures
            ],
        }
        lines = [f"prop1: {'pass' if report.passed else 'FAIL'} over {len(report.alphas)} alphas"]
        lines += [f"  mismatch at alpha={f['alpha']}" for f in payload["failures"]]
        _emit(payload, ns.json, lines)
        return 0 if report.passed else 1
    build = {"cpr": cpr, "cut": ihdr_cut, "intersection": ihdr_intersection}[ns.kind]
    region = build(contour, ns.alpha)
    payload = {"alpha": ns.alpha, "kind": region.kind, "size": region_size(region, contour.space)}
    if isinstance(contour.space, FiniteOutcomeSpace):
        payload["labels"] = region.event.to_labels(contour.space)
    else:
        payload["indices"] = list(region.event.indices)
        payload["points"] = [contour.space.point(i) for i in region.event.indices]
    _emit(payload, ns.json, [f"{region.kind} at alpha={ns.alpha}: {payload.get('labels', payload.get('indices'))}"])
    return 0


def _parse_weights(text: str) -> ProbabilityVector:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        weights = tuple(Fraction(p) for p in parts)
    except ZeroDivisionError:
        raise ValueError(f"--p {text}: zero denominator") from None
    return ProbabilityVector(weights)


def _parse_priors(text: str) -> list:
    priors = json.loads(text)
    if not isinstance(priors, list) or not all(isinstance(p, dict) for p in priors):
        raise ValueError('--priors must be a JSON list like [{"a": 2, "b": 1}]')
    return [GammaParams(to_float(p["a"], "a"), to_float(p["b"], "b")) for p in priors]


def _cmd_credal(ns) -> int:
    contour = Contour.from_json(_read_json(ns.contour))
    if ns.action == "check":
        p = _parse_weights(ns.p)
        member = in_credal_set(p, contour)
        _emit({"member": member}, ns.json, [f"member: {member}"])
        return 0 if member else 1
    if ns.action == "extremes":
        pts = extreme_points(contour)
        rows = [[fmt_scalar(w) for w in p.weights] for p in pts]
        _emit({"extreme_points": rows}, ns.json, [str(r) for r in rows])
        return 0
    if ns.action == "entropy":
        h = lower_entropy(contour)
        _emit({"lower_entropy": h}, ns.json, [f"lower entropy: {h}"])
        return 0
    if ns.action == "sample":
        pts = sample_credal(contour, count=ns.count, seed=ns.seed)
        rows = [[float(w) for w in p.weights] for p in pts]
        _emit({"samples": rows}, ns.json, [str(r) for r in rows])
        return 0
    # ternary: extreme points always, sampled members when --count/--seed given
    rows = [(ternary_coords(p), "extreme") for p in extreme_points(contour)]
    if ns.count is not None:
        if ns.seed is None:
            raise ValueError("sampling needs --seed")
        rows += [(ternary_coords(p), "sample") for p in sample_credal(contour, count=ns.count, seed=ns.seed)]
    with open(ns.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "label"])
        for (x, y), label in rows:
            writer.writerow([f"{x:.12g}", f"{y:.12g}", label])
    _emit({"rows": len(rows), "out": ns.out}, ns.json, [f"wrote {len(rows)} coordinates to {ns.out}"])
    return 0


def _cmd_bsa(ns) -> int:
    priors = _parse_priors(ns.priors)
    data = ()
    if ns.data:
        data = tuple(int(float(v)) for v in _read_data_csv(ns.data, as_float=True))
    posts = tuple(posterior_update(p, data) for p in priors)
    report = bsa_ihdr_report(PredictiveFGCS(posts), ns.alpha)
    payload = {
        "support": sorted(report.support),
        "per_component": list(report.per_component),
        "lower": report.lower,
        "exhaustive_verified": report.exhaustive_verified,
    }
    _emit(
        payload,
        ns.json,
        [
            f"support: {payload['support']}",
            f"lower envelope: {report.lower:.6f} (target {1 - ns.alpha})",
            f"exhaustive_verified: {report.exhaustive_verified}",
        ],
    )
    return 0


def _cmd_coverage(ns) -> int:
    spec = ProcessSpec.from_json(_read_json(ns.spec))
    psi = NonconformityMeasure.from_name(ns.psi) if ns.psi else None
    report = run_coverage(spec, ns.n, ns.alpha, psi, ns.trials, ns.seed)
    row = [
        report.family,
        report.n,
        report.alpha,
        report.trials,
        report.hits,
        f"{report.empirical_coverage:.6f}",
        f"{report.standard_error:.6f}",
        report.passed,
    ]
    if ns.out:
        with open(ns.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["family", "n", "alpha", "trials", "hits", "coverage", "se", "pass"])
            writer.writerow(row)
    payload = {
        "family": report.family,
        "n": report.n,
        "alpha": report.alpha,
        "trials": report.trials,
        "hits": report.hits,
        "coverage": report.empirical_coverage,
        "se": report.standard_error,
        "pass": report.passed,
        "path": report.path,
    }
    _emit(
        payload,
        ns.json,
        [
            f"{report.family} n={report.n} alpha={report.alpha}: "
            f"coverage {report.empirical_coverage:.4f} (se {report.standard_error:.4f}) "
            f"{'pass' if report.passed else 'FAIL'}"
        ],
    )
    return 0 if report.passed else 1


def _table1_fixture():
    f = Fraction
    return {
        "contour": (f(21, 101), f(51, 101), f(1)),
        "rows": {
            ("A",): (f(0), f(21, 101)),
            ("B",): (f(0), f(51, 101)),
            ("C",): (f(50, 101), f(1)),
            ("A", "B"): (f(0), f(51, 101)),
            ("A", "C"): (f(50, 101), f(1)),
            ("B", "C"): (f(80, 101), f(1)),
        },
        "mass": {
            ("C",): f(50, 101),
            ("B", "C"): f(30, 101),
            ("A", "B", "C"): f(21, 101),
        },
        "entropy": 0.0,
        "p_emp": (f(1, 5), f(3, 10), f(1, 2)),
    }


def _cmd_table1(ns) -> int:
    space = FiniteOutcomeSpace(("A", "B", "C"))
    fixture = _table1_fixture()
    contour = transduce_grid(
        _TABLE1_DATA, space, NonconformityMeasure.one_minus_emp()
    ).contour
    if contour.values != fixture["contour"]:
        raise FixtureMismatch(f"contour {contour.values} != {fixture['contour']}")

    rows = {}
    for labels, expected in fixture["rows"].items():
        ev = Event.from_labels(space, labels)
        got = (lower_prob(contour, ev), upper_prob(contour, ev))
        if got != expected:
            raise FixtureMismatch(f"event {labels}: {got} != {expected}")
        rows[labels] = got

    mass = mass_from_belief(lambda ev: lower_prob(contour, ev), space)
    got_mass = {tuple(ev.to_labels(space)): m for ev, m in mass.masses.items()}
    if got_mass != fixture["mass"]:
        raise FixtureMismatch(f"mass {got_mass} != {fixture['mass']}")

    entropy = lower_entropy(contour)
    if entropy != fixture["entropy"]:
        raise FixtureMismatch(f"lower entropy {entropy} != 0")

    p_emp = ProbabilityVector(fixture["p_emp"])
    if not in_credal_set(p_emp, contour):
        raise FixtureMismatch("empirical pmf (0.2, 0.3, 0.5) must be a member")
    members = sample_credal(contour, count=_TABLE1_SAMPLES, seed=_TABLE1_SEED)
    coords = [(ternary_coords(p), "sample") for p in members]
    coords.append((ternary_coords(p_emp), "p_emp"))

    payload = {
        "contour": [fmt_scalar(v) for v in contour.values],
        "rows": [
            {"event": list(k), "lower": fmt_scalar(v[0]), "upper": fmt_scalar(v[1])}
            for k, v in sorted(rows.items(), key=lambda kv: (len(kv[0]), kv[0]))
        ],
        "mass": [
            {"event": list(k), "mass": fmt_scalar(m)}
            for k, m in sorted(got_mass.items(), key=lambda kv: len(kv[0]))
        ],
        "ternary": [{"x": x, "y": y, "label": label} for (x, y), label in coords],
        "lower_entropy": entropy,
    }
    lines = ["contour: " + ", ".join(payload["contour"])]
    lines += [
        f"  {{{', '.join(r['event'])}}}: lower {r['lower']}, upper {r['upper']}"
        for r in payload["rows"]
    ]
    lines += [f"mass {{{', '.join(r['event'])}}}: {r['mass']}" for r in payload["mass"]]
    lines.append(f"lower entropy: {entropy}")
    lines.append(f"ternary coordinates: {len(coords)} points (samples + p_emp)")
    _emit(payload, ns.json, lines)
    return 0


_HANDLERS = {
    "transduce": _cmd_transduce,
    "possibility": _cmd_possibility,
    "region": _cmd_region,
    "credal": _cmd_credal,
    "bsa": _cmd_bsa,
    "coverage": _cmd_coverage,
    "table1": _cmd_table1,
}


def main(argv=None) -> int:
    ns = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return _HANDLERS[ns.subcommand](ns)
    except (OSError, json.JSONDecodeError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FixtureMismatch as exc:
        print(f"fixture mismatch: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TruncationInsufficient) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
