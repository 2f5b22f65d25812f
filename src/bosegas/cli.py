"""Command-line front end: config parsing, orchestration, result tables.

Subcommands ``scatter``, ``coeffs``, ``rho``, ``oracle`` and ``all`` drive
the library modules and write CSV tables and JSON reports into the output
directory.  Runs are fully deterministic: identical configuration produces
byte-identical numeric payloads, whatever the caller's BLAS thread count,
because every command runs with BLAS pinned to one thread; the only
volatile quantity (wall time) lives in the separate ``provenance.json``.

Exit statuses: 0 success, 2 usage error, 3 numerical-guard refusal,
4 solver failure.  Failures also leave a machine-readable ``error.json``
in the output directory whenever one is known.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__, _blas
from .bogoliubov import (
    COEFFICIENT_CSV_HEADER,
    ThermalConfig,
    Variant,
    depletion_sums,
    dispersion,
    mode_coefficients,
)
from .density import build_rho1, build_rho2, dm2_min_eigenvalue, dm_trace_norm_diff
from .errors import (
    BasisSizeError,
    BosegasError,
    GuardError,
    ModelValidityError,
    SolverError,
)
from .fock import build_basis
# enumerate_shells is looked up here by name by the benchmark's tracer
from .lattice import enumerate_shells, modes_up_to, shell_modes, shell_table  # noqa: F401
from .oracles import (
    adjudicate_variants,
    partition_product_check,
    toy_gibbs_experiment,
    toy_scattering_length,
)
from .scattering import (
    R_MAX_FACTOR,
    RadialPotential,
    default_r_max,
    energy_functional,
    kernel_table,
    solve_neumann,
    solve_scattering,
)

USAGE_EXIT = 2
GUARD_EXIT = 3
SOLVER_EXIT = 4


DEFAULT_CONFIG: dict[str, Any] = {
    "potential": {"kind": "soft_sphere", "v0": 100.0, "radius": 0.5},
    "a_override": None,
    "N": 100,
    "beta": 1.0,
    "cutoff_norm_sq": 100,
    "ell": 0.495,
    "variant": "both",
    "tol": 1e-10,
    "scatter_r_max_factor": R_MAX_FACTOR,
    "oracle": {
        "shells": [1],
        "cap": 12,
        "a": 0.05,
        "beta": 2.0,
        "momentum_scale": 1.0,
        "toy": {"enabled": True, "N": 16, "cap": 6, "beta": 1.0, "coupling": 1.0},
    },
    "output_dir": "results",
}


def _deep_update(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_update(out[key], value)
        else:
            out[key] = value
    return out


def _apply_set(config: dict, assignment: str):
    if "=" not in assignment:
        raise ValueError(f"--set expects key=value, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ValueError(f"cannot descend into non-table config key {part!r}")
    node[parts[-1]] = value


def load_config(path: str | None, sets: list[str], overrides: dict) -> dict:
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path:
        with open(path) as fh:
            config = _deep_update(config, json.load(fh))
    for assignment in sets:
        _apply_set(config, assignment)
    for key, value in overrides.items():
        if value is not None:
            config[key] = value
    return config


def _potential_from_config(config: dict) -> RadialPotential:
    spec = config.get("potential")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("config lacks a potential specification")
    kind = spec["kind"]
    if kind == "soft_sphere":
        return RadialPotential.soft_sphere(float(spec["v0"]), float(spec["radius"]))
    if kind == "gaussian_truncated":
        return RadialPotential.gaussian_truncated(
            float(spec["v0"]), float(spec["width"]), float(spec["support_radius"])
        )
    if kind == "tabulated":
        return RadialPotential.tabulated(spec["grid"], spec["values"])
    raise ValueError(f"unknown potential kind {kind!r}")


def _variants(config: dict) -> list[Variant]:
    choice = config.get("variant", "both")
    if choice == "both":
        return [Variant.A, Variant.B]
    return [Variant(choice)]


def _provenance(config: dict) -> dict:
    return {"config": config, "version": __version__}


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _write_json(path: Path, payload: dict, config: dict) -> Path:
    payload = dict(payload)
    payload["provenance"] = _provenance(config)
    return _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv_comments(config: dict) -> list[str]:
    return [f"version: {__version__}", "config: " + json.dumps(config, sort_keys=True)]


@dataclasses.dataclass
class ResultBundle:
    """Paths of everything a command emitted."""

    files: dict[str, str] = dataclasses.field(default_factory=dict)

    def add(self, key: str, path: Path):
        self.files[key] = str(path)

    def merge(self, other: "ResultBundle"):
        self.files.update(other.files)


def _scattering_length(config: dict) -> float:
    if config.get("a_override") is not None:
        return float(config["a_override"])
    potential = _potential_from_config(config)
    if potential.is_zero:
        return 0.0
    r_max = default_r_max(potential, config["scatter_r_max_factor"])
    return solve_scattering(potential, r_max=r_max, tol=config["tol"]).a


def cmd_scatter(config: dict, out_dir: Path) -> ResultBundle:
    potential = _potential_from_config(config)
    tol = float(config["tol"])
    r_max = default_r_max(potential, float(config["scatter_r_max_factor"]))
    sol = solve_scattering(potential, r_max=r_max, tol=tol)
    a_functional = energy_functional(sol)
    N = int(config["N"])
    ell = float(config["ell"])
    neumann = solve_neumann(potential, R=N * ell, tol=tol)
    modes = modes_up_to(int(config["cutoff_norm_sq"]))
    table = kernel_table(potential, N=N, ell=ell, modes=modes, tol=tol,
                         scattering_r_max=r_max, scattering=sol, neumann=neumann)

    bundle = ResultBundle()
    bundle.add(
        "kernel_csv",
        _write(out_dir / "kernels.csv", table.to_csv(comments=_csv_comments(config))),
    )
    summary = {
        "a_ode": sol.a,
        "a_functional": a_functional,
        "lambda": neumann.lam,
        "lambda_R3_over_3": neumann.lam * (N * ell) ** 3 / 3.0,
        "N": N,
        "ell": ell,
        "r_max": r_max,
    }
    bundle.add("scatter_summary", _write_json(out_dir / "scatter.json", summary, config))
    return bundle


def cmd_coeffs(config: dict, out_dir: Path) -> ResultBundle:
    a = _scattering_length(config)
    beta = float(config["beta"])
    cutoff = int(config["cutoff_norm_sq"])
    norm_sq, _, p_sq = shell_table(cutoff)

    lines = [f"# {c}" for c in _csv_comments(config)]
    lines.append(COEFFICIENT_CSV_HEADER)
    for j, p in zip(norm_sq.tolist(), p_sq.tolist()):
        c = mode_coefficients(p, a, beta)
        lines.append(
            f"{j},{c.eps!r},{c.mu_sq!r},{c.theta_sq_A!r},"
            f"{c.theta_sq_B!r},{c.nu!r},{c.pairing_A!r},{c.pairing_B!r}"
        )
    bundle = ResultBundle()
    bundle.add(
        "coefficients_csv", _write(out_dir / "coefficients.csv", "\n".join(lines) + "\n")
    )

    sums = {}
    for variant in _variants(config):
        cfg = ThermalConfig(a=a, beta=beta, variant=variant)
        result = depletion_sums(cfg, cutoff)
        sums[variant.value] = {
            key: {
                "value": res.value,
                "tail_bound": res.tail_bound,
                "cutoff_norm_sq": res.cutoff_norm_sq,
            }
            for key, res in result.items()
        }
    payload = {"a": a, "beta": beta, "cutoff_norm_sq": cutoff, "depletion": sums}
    bundle.add("depletion_json", _write_json(out_dir / "depletion.json", payload, config))
    return bundle


def cmd_rho(config: dict, out_dir: Path) -> ResultBundle:
    a = _scattering_length(config)
    beta = float(config["beta"])
    cutoff = int(config["cutoff_norm_sq"])
    N = int(config["N"])
    bundle = ResultBundle()

    built = {}
    for variant in _variants(config):
        cfg = ThermalConfig(a=a, beta=beta, variant=variant)
        dm1 = build_rho1(cfg, N, cutoff)
        dm2 = build_rho2(cfg, N, cutoff)
        built[variant] = (dm1, dm2)
        bundle.add(
            f"dm1_{variant.value}",
            _write(out_dir / f"dm1_{variant.value}.json",
                   dm1.to_json(provenance=_provenance(config)) + "\n"),
        )
        bundle.add(
            f"dm2_{variant.value}",
            _write(out_dir / f"dm2_{variant.value}.json",
                   dm2.to_json(provenance=_provenance(config)) + "\n"),
        )

    summary: dict[str, Any] = {"a": a, "beta": beta, "N": N, "cutoff_norm_sq": cutoff}
    for variant, (dm1, dm2) in built.items():
        summary[f"trace_dm1_{variant.value}"] = dm1.trace()
        summary[f"trace_dm2_{variant.value}"] = dm2.trace()
        summary[f"dm2_min_eigenvalue_{variant.value}"] = dm2_min_eigenvalue(dm2)
    if len(built) == 2:
        dm1_a, dm2_a = built[Variant.A]
        dm1_b, dm2_b = built[Variant.B]
        summary["variant_distance_dm1"] = dm_trace_norm_diff(dm1_a, dm1_b)
        summary["variant_distance_dm2"] = dm_trace_norm_diff(dm2_a, dm2_b)
    bundle.add("rho_summary", _write_json(out_dir / "rho.json", summary, config))
    return bundle


def cmd_oracle(config: dict, out_dir: Path) -> ResultBundle:
    oracle_cfg = config["oracle"]
    bundle = ResultBundle()
    report = adjudicate_variants(
        a=float(oracle_cfg["a"]),
        beta=float(oracle_cfg["beta"]),
        shells=[int(s) for s in oracle_cfg["shells"]],
        cap=int(oracle_cfg["cap"]),
        momentum_scale=float(oracle_cfg.get("momentum_scale", 1.0)),
    )
    bundle.add(
        "adjudication",
        _write(out_dir / "adjudication.json",
               report.to_json(provenance=_provenance(config)) + "\n"),
    )

    scale = float(oracle_cfg.get("momentum_scale", 1.0))
    modes = shell_modes((int(s) for s in oracle_cfg["shells"]), momentum_scale=scale)
    eps = [dispersion(m.p_sq, float(oracle_cfg["a"])) for m in modes]
    basis = build_basis(modes, int(oracle_cfg["cap"]))
    sandwich = partition_product_check(basis, eps, beta=float(oracle_cfg["beta"]))
    bundle.add(
        "partition",
        _write_json(out_dir / "partition.json", dataclasses.asdict(sandwich), config),
    )

    toy_cfg = oracle_cfg.get("toy", {})
    if toy_cfg.get("enabled", False):
        potential = _potential_from_config(config)
        coupling = float(toy_cfg.get("coupling", 1.0))
        a_model = toy_scattering_length(potential, coupling)
        toy_n = int(toy_cfg["N"])
        runs = {
            n: toy_gibbs_experiment(
                N=n,
                potential=potential,
                shells=[int(s) for s in oracle_cfg["shells"]],
                cap=int(toy_cfg["cap"]),
                beta=float(toy_cfg.get("beta", config["beta"])),
                coupling=coupling,
                a=a_model,
            )
            for n in (toy_n, 2 * toy_n)
        }
        gibbs_report, rows = runs[toy_n]
        payload = json.loads(gibbs_report.to_json())
        # the normalized pair moment <N+(N+-1)>/N is a desk-scale trend, not a
        # limit statement; report it at N and 2N without asserting a tolerance
        payload["pair_moment_over_N_trend"] = {
            str(n): report.n_plus_sq / n for n, (report, _) in runs.items()
        }
        bundle.add(
            "toy_report", _write_json(out_dir / "toy_gibbs.json", payload, config)
        )
        lines = [f"# {c}" for c in _csv_comments(config)]
        lines.append(
            "norm_sq,oracle_occ,model_occ_A,model_occ_B,oracle_pair,model_pair_A,model_pair_B"
        )
        for row in rows:
            lines.append(
                f"{row['norm_sq']},{row['oracle_occ']!r},{row['model_occ_A']!r},"
                f"{row['model_occ_B']!r},{row['oracle_pair']!r},"
                f"{row['model_pair_A']!r},{row['model_pair_B']!r}"
            )
        bundle.add(
            "comparison_csv", _write(out_dir / "comparison.csv", "\n".join(lines) + "\n")
        )
    return bundle


# ``all`` runs every command, in this order
COMMANDS = {
    "scatter": cmd_scatter,
    "coeffs": cmd_coeffs,
    "rho": cmd_rho,
    "oracle": cmd_oracle,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosegas",
        description="Bogoliubov coefficients, density-matrix models and Fock-space oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("scatter", "coeffs", "rho", "oracle", "all"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON configuration file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry (dotted keys, JSON values)",
        )
        p.add_argument("--output-dir", default=None)
        p.add_argument("--variant", choices=["A", "B", "both"], default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    # the pin covers the whole run, parsing and writing included
    with _blas.single_thread() as blas_threads:
        return _run(argv, blas_threads)


def _run(argv: list[str] | None, blas_threads: int | str) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    out_dir = None if args.output_dir is None else Path(args.output_dir)
    try:
        config = load_config(
            args.config,
            args.set,
            {"output_dir": args.output_dir, "variant": args.variant},
        )
        out_dir = Path(config["output_dir"])
        names = tuple(COMMANDS) if args.command == "all" else (args.command,)
        bundle = ResultBundle()
        stage_seconds = {}
        for name in names:
            stage_started = time.monotonic()
            bundle.merge(COMMANDS[name](config, out_dir))
            stage_seconds[name] = time.monotonic() - stage_started
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        _record_error(out_dir, exc)
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (GuardError, ModelValidityError, BasisSizeError) as exc:
        _record_error(out_dir, exc)
        print(f"numerical guard refused: {exc}", file=sys.stderr)
        return GUARD_EXIT
    except (SolverError, BosegasError, np.linalg.LinAlgError) as exc:
        _record_error(out_dir, exc)
        print(f"solver failure: {exc}", file=sys.stderr)
        return SOLVER_EXIT

    provenance = _provenance(config)
    provenance["wall_time_s"] = time.monotonic() - started
    provenance["stage_seconds"] = stage_seconds
    provenance["blas_threads"] = blas_threads
    provenance["files"] = bundle.files
    _write(
        out_dir / "provenance.json",
        json.dumps(provenance, indent=2, sort_keys=True) + "\n",
    )
    for key, path in sorted(bundle.files.items()):
        print(f"{key}: {path}")
    return 0


def _record_error(out_dir: Path | None, exc: Exception):
    if out_dir is None:
        return
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "error.json").write_text(
            json.dumps(
                {"error": type(exc).__name__, "message": str(exc)},
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    except OSError:
        pass  # an unwritable output directory must not mask the original failure


if __name__ == "__main__":
    sys.exit(main())
