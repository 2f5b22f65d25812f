"""Command-line front end: config parsing, orchestration, result tables.

Subcommands ``scatter``, ``coeffs``, ``rho``, ``oracle`` and ``all`` drive
the library modules and write CSV tables and JSON reports into the output
directory.  Runs are fully deterministic: identical configuration produces
byte-identical numeric payloads, whatever the caller's BLAS thread count,
because every command runs with BLAS pinned to one thread; the only
volatile quantity (wall time) lives in the separate ``provenance.json``.

This module renders every payload; the library returns plain dataclasses
and columns.  JSON goes through one dump (``indent=2``, sorted keys,
trailing newline), with the run's ``provenance`` under its own key and the
density models' per-shell ``modes`` rows spliced in from their columns (the
same bytes as the dump); CSV goes through one writer: ``# version`` and
``# config`` comment lines, the column names as header, and one ``%r`` row
template.  ``coeffs`` and ``rho`` each evaluate the coefficient columns once
and pass them to the depletion sums and to both density models.

A configuration key the defaults do not hold, or a value of another type
than the default's, is refused as a usage error naming the dotted key,
except inside the ``potential`` table, whose keys depend on its kind.

Exit statuses: 0 success, 2 usage error, 3 numerical-guard refusal,
4 solver failure.  Failures also leave a machine-readable ``error.json``
in the output directory whenever one is known.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__, _blas
from .bogoliubov import Variant, depletion_sums, mode_coefficients
from .density import build_rho1, build_rho2, dm2_min_eigenvalue, dm_trace_norm_diff
from .errors import (
    BasisSizeError,
    BosegasError,
    GuardError,
    ModelValidityError,
    SolverError,
)
# build_basis, enumerate_shells and modes_up_to are looked up here by name
# by the benchmark's tracer
from .fock import build_basis  # noqa: F401
from .lattice import (  # noqa: F401
    enumerate_shells,
    modes_up_to,
    shell_modes,
    shell_norms,
    shell_table,
)
from .oracles import (
    adjudicate_variants,
    partition_product_check,
    toy_gibbs_experiment,
)
from .scattering import (
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
    "oracle": {
        "shells": [1],
        "cap": 12,
        "a": 0.05,
        "beta": 2.0,
        "toy": {"N": 16, "cap": 6, "beta": 1.0},
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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _fits(value, default) -> bool:
    """Whether ``value`` has the type of ``default``: an int passes where the
    default is a float, a bool only where it is a bool, and a list's entries
    must fit its default's first entry."""
    if default is None:  # a_override
        return value is None or _is_number(value)
    if isinstance(default, float):
        return _is_number(value)
    if _is_number(default):
        return _is_number(value) and isinstance(value, int)
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(entry, default[0]) for entry in value)
    return isinstance(value, type(default))


def _check_keys(config: dict, known: dict, prefix: str = ""):
    """Refuse a key the defaults do not hold, or a value of another type than
    its default's, naming the dotted key."""
    for key, value in config.items():
        name = prefix + key
        if key not in known:
            raise ValueError(f"unknown config key {name!r}")
        if key == "potential":
            continue
        default = known[key]
        if not _fits(value, default):
            expected = ("null or a number" if default is None
                        else f"a value of type {type(default).__name__}")
            raise ValueError(f"config key {name!r} takes {expected}, got {value!r}")
        if isinstance(default, dict):
            _check_keys(value, default, f"{name}.")


def load_config(path: str | None, sets: list[str], overrides: dict) -> dict:
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path:
        with open(path) as fh:
            config = _deep_update(config, json.load(fh))
    for assignment in sets:
        _apply_set(config, assignment)
    for key, value in overrides.items():
        if value is not None:
            config[key] = value
    _check_keys(config, DEFAULT_CONFIG)
    for key in ("beta", "oracle.beta", "oracle.toy.beta"):
        beta = functools.reduce(dict.__getitem__, key.split("."), config)
        if not 0.0 < beta < math.inf:
            raise ValueError(f"config key {key!r} takes a positive finite inverse "
                             f"temperature, got {beta!r}")
    try:
        shell_norms(config["oracle"]["shells"])
    except ValueError as exc:
        raise ValueError(f"config key 'oracle.shells': {exc}") from None
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


def _write(path: Path, text: str) -> str:
    """Write ``text`` to ``path``; returns the path as the files entry records it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path)


# repr's spelling of the non-finite floats, and json's
_JSON_FLOAT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(payload: dict, modes: dict | None = None) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` and a newline.

    ``modes``, equally long columns by name, becomes the top-level list
    ``modes`` of one object per row, written through one row template with
    the bytes of the dump: a cutoff-1,000 ``dm2`` file takes 2.2 ms this way
    and 6.3 ms as a dump of row dicts (one Xeon core).
    """
    if modes is None:
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    keys = sorted(modes)
    # %r is int.__repr__ or float.__repr__, as json writes them when finite
    template = "    {\n" + ",\n".join(f"      {json.dumps(k)}: %r" for k in keys) + "\n    }"
    rows = ",\n".join([template % row for row in zip(*(modes[k].tolist() for k in keys))])
    for python, js in _JSON_FLOAT.items():
        rows = rows.replace(": " + python, ": " + js)  # ": inf" does not match ": -inf"
    # the top-level "modes" entry is the only line that starts with two spaces
    # and '"modes"': nested keys are indented deeper, and strings hold no newline
    return _json_text({**payload, "modes": 0}).replace(
        '\n  "modes": 0', '\n  "modes": ' + (f"[\n{rows}\n  ]" if rows else "[]"), 1)


def _write_json(path: Path, payload: dict, config: dict, modes: dict | None = None) -> str:
    return _write(path, _json_text({**payload, "provenance": _provenance(config)}, modes))


def _write_csv(path: Path, config: dict, columns: dict) -> str:
    """One row per entry of the equally long ``columns``, headed by their names."""
    lines = [f"# version: {__version__}", "# config: " + json.dumps(config, sort_keys=True),
             ",".join(columns)]
    # %r is int.__repr__ or float.__repr__: every float round-trips
    template = ",".join(["%r"] * len(columns))
    lines += [template % row
              for row in zip(*(np.asarray(column).tolist() for column in columns.values()))]
    return _write(path, "\n".join(lines) + "\n")


def _scattering_length(config: dict) -> float:
    if config.get("a_override") is not None:
        return float(config["a_override"])
    potential = _potential_from_config(config)
    return solve_scattering(potential, r_max=default_r_max(potential), tol=config["tol"]).a


def cmd_scatter(config: dict, out_dir: Path) -> dict[str, str]:
    potential = _potential_from_config(config)
    tol = float(config["tol"])
    N = int(config["N"])
    ell = float(config["ell"])
    if N < 1:
        raise ValueError("particle number must be >= 1")
    if not (0.0 < ell < 0.5):
        raise ValueError("ell must lie in (0, 1/2) so the ball fits the torus")
    r_max = default_r_max(potential)
    sol = solve_scattering(potential, r_max=r_max, tol=tol)
    a_functional = energy_functional(sol)
    neumann = solve_neumann(potential, R=N * ell, tol=tol)
    table = kernel_table(sol, neumann, N, int(config["cutoff_norm_sq"]))

    files = {"kernel_csv": _write_csv(out_dir / "kernels.csv", config, {
        "norm_sq": table.norm_sq, "p_abs": np.sqrt(table.p_sq),
        "eta": table.eta, "tau": table.tau, "nu": table.nu,
    })}
    summary = {
        "a_ode": sol.a,
        "a_functional": a_functional,
        "lambda": neumann.lam,
        "lambda_R3_over_3": neumann.lam * (N * ell) ** 3 / 3.0,
        "N": N,
        "ell": ell,
        "r_max": r_max,
    }
    files["scatter_summary"] = _write_json(out_dir / "scatter.json", summary, config)
    return files


def cmd_coeffs(config: dict, out_dir: Path) -> dict[str, str]:
    a = _scattering_length(config)
    beta = float(config["beta"])
    cutoff = int(config["cutoff_norm_sq"])
    norm_sq, _, p_sq = shell_table(cutoff)
    c = mode_coefficients(p_sq, a, beta)
    files = {"coefficients_csv": _write_csv(out_dir / "coefficients.csv", config, {
        "norm_sq": norm_sq, "eps": c.eps, "mu_sq": c.mu_sq,
        "theta_sq_A": c.theta_sq_A, "theta_sq_B": c.theta_sq_B, "nu": c.nu,
        "pairing_A": c.pairing_A, "pairing_B": c.pairing_B,
    })}

    sums = {variant.value: {key: dataclasses.asdict(res)
                            for key, res in depletion_sums(c, variant, cutoff).items()}
            for variant in _variants(config)}
    payload = {"a": a, "beta": beta, "cutoff_norm_sq": cutoff, "depletion": sums}
    files["depletion_json"] = _write_json(out_dir / "depletion.json", payload, config)
    return files


def cmd_rho(config: dict, out_dir: Path) -> dict[str, str]:
    a = _scattering_length(config)
    beta = float(config["beta"])
    cutoff = int(config["cutoff_norm_sq"])
    N = int(config["N"])
    c = mode_coefficients(shell_table(cutoff)[2], a, beta)
    files = {}

    built = {}
    for variant in _variants(config):
        dm1 = build_rho1(c, variant, N, cutoff)
        dm2 = build_rho2(c, variant, N, cutoff)
        built[variant] = (dm1, dm2)
        for name, dm, pairing in ((f"dm1_{variant.value}", dm1, {}),
                                  (f"dm2_{variant.value}", dm2, {"pairing": dm2.pairing})):
            payload = {"N": dm.N, "cutoff": dm.cutoff, "variant": dm.variant.value,
                       "condensate": float(dm.condensate_weight), "trace": dm.trace()}
            modes = {"norm_sq": dm.norm_sq, "multiplicity": dm.multiplicity,
                     "weight": dm.excited_weights, **pairing}
            files[name] = _write_json(out_dir / f"{name}.json", payload, config, modes)

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
    files["rho_summary"] = _write_json(out_dir / "rho.json", summary, config)
    return files


def cmd_oracle(config: dict, out_dir: Path) -> dict[str, str]:
    oracle_cfg = config["oracle"]
    shells = [int(s) for s in oracle_cfg["shells"]]
    report = adjudicate_variants(
        a=float(oracle_cfg["a"]),
        beta=float(oracle_cfg["beta"]),
        shells=shells,
        cap=int(oracle_cfg["cap"]),
    )
    files = {"adjudication": _write_json(out_dir / "adjudication.json",
                                         dataclasses.asdict(report), config)}

    modes = shell_modes(shells, momentum_scale=1.0)
    eps = mode_coefficients([m.p_sq for m in modes], float(oracle_cfg["a"])).eps.tolist()
    sandwich = partition_product_check(eps, int(oracle_cfg["cap"]),
                                       beta=float(oracle_cfg["beta"]))
    files["partition"] = _write_json(out_dir / "partition.json", dataclasses.asdict(sandwich),
                                     config)

    toy_cfg = oracle_cfg["toy"]
    toy_n = int(toy_cfg["N"])
    ns = (toy_n, 2 * toy_n)
    runs = dict(zip(ns, toy_gibbs_experiment(
        ns,
        potential=_potential_from_config(config),
        shells=shells,
        cap=int(toy_cfg["cap"]),
        beta=float(toy_cfg["beta"]),
    )))
    gibbs_report, rows = runs[toy_n]
    payload = dataclasses.asdict(gibbs_report)
    # keyed by the string of |n|^2 before the dump: json.dumps sorts int keys
    # as numbers, and the payload has them sorted as strings ("10" before "2")
    for key in ("occupations", "pairings"):
        payload[key] = {str(norm_sq): value for norm_sq, value in payload[key].items()}
    # the normalized pair moment <N+(N+-1)>/N is a desk-scale trend, not a
    # limit statement; report it at N and 2N without asserting a tolerance
    payload["pair_moment_over_N_trend"] = {
        str(n): report.n_plus_sq / n for n, (report, _) in runs.items()
    }
    files["toy_report"] = _write_json(out_dir / "toy_gibbs.json", payload, config)
    files["comparison_csv"] = _write_csv(out_dir / "comparison.csv", config,
                                         {key: [row[key] for row in rows] for key in rows[0]})
    return files


# ``all`` runs every command, in this order; each returns the paths it wrote, by key
COMMANDS = {
    "scatter": cmd_scatter,
    "coeffs": cmd_coeffs,
    "rho": cmd_rho,
    "oracle": cmd_oracle,
}


USAGE = (f"usage: bosegas {{{','.join([*COMMANDS, 'all'])}}} [--config FILE] "
         "[--set KEY=VALUE ...]\n                [--output-dir DIR] [--variant {A,B,both}]")
# the options, each taking a value; --output-dir is filed under output_dir
_OPTIONS = ("--config", "--set", "--output-dir", "--variant")


def _usage_error(message: str):
    print(f"{USAGE}\nbosegas: error: {message}", file=sys.stderr)
    raise SystemExit(USAGE_EXIT)


def parse_args(argv: list[str]) -> dict:
    """The command and options of ``argv``, by name; ``--set`` collects a list.

    An option takes its value as the next word or after ``=``, and options
    may come in any order around the command.  ``-h``/``--help`` prints the
    usage line and exits 0; anything else prints it with the error and
    exits with the usage status.  Options are not abbreviated.
    """
    args = {"command": None, "config": None, "set": [], "output_dir": None, "variant": None}
    words = iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            print(USAGE)
            raise SystemExit(0)
        option, joined, value = word.partition("=")
        if option in _OPTIONS:
            if not joined:
                value = next(words, None)
                if value is None or value.startswith("-"):
                    _usage_error(f"argument {option}: expected one argument")
            key = option[2:].replace("-", "_")
            if key == "set":
                args["set"].append(value)
            else:
                args[key] = value
        elif word.startswith("-") or args["command"] is not None:
            _usage_error(f"unrecognized arguments: {word}")
        elif word not in (*COMMANDS, "all"):
            _usage_error(f"argument command: invalid choice: {word!r}")
        else:
            args["command"] = word
    if args["variant"] not in (None, "A", "B", "both"):
        _usage_error(f"argument --variant: invalid choice: {args['variant']!r}")
    if args["command"] is None:
        _usage_error("the following arguments are required: command")
    return args


def main(argv: list[str] | None = None) -> int:
    # the pin covers the whole run, parsing and writing included
    with _blas.single_thread() as blas_threads:
        return _run(argv, blas_threads)


def _run(argv: list[str] | None, blas_threads: int | str) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    started = time.monotonic()
    out_dir = None if args["output_dir"] is None else Path(args["output_dir"])
    try:
        config = load_config(
            args["config"],
            args["set"],
            {"output_dir": args["output_dir"], "variant": args["variant"]},
        )
        out_dir = Path(config["output_dir"])
        names = tuple(COMMANDS) if args["command"] == "all" else (args["command"],)
        files = {}
        stage_seconds = {}
        for name in names:
            stage_started = time.monotonic()
            files.update(COMMANDS[name](config, out_dir))
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
    provenance["files"] = files
    _write(out_dir / "provenance.json", _json_text(provenance))
    for key, path in sorted(files.items()):
        print(f"{key}: {path}")
    return 0


def _record_error(out_dir: Path | None, exc: Exception):
    if out_dir is None:
        return
    try:
        _write(out_dir / "error.json",
               _json_text({"error": type(exc).__name__, "message": str(exc)}))
    except OSError:
        pass  # an unwritable output directory must not mask the original failure


if __name__ == "__main__":
    sys.exit(main())
