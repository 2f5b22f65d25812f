"""Run one benchmark op in a fresh interpreter.

Usage: ``python3 child.py SPEC_JSON``, where the spec holds ``argvs`` (the
``bosegas.cli.main`` argument lists to run in order), ``trace``, ``op_id``,
``src`` (the directory ``bosegas`` must be imported from) and ``result``
(the file to write the measurements to).

Interpreter start and imports are the op's set-up; the op itself is timed
around the ``main`` calls.  With ``trace`` the layer functions are wrapped
under the names ``bosegas.cli`` and ``bosegas.oracles`` call them by, spans
are kept in memory and written with the result when the op ends.
"""

import functools
import importlib
import json
import os
import resource
import sys
import time

# (module whose namespace the caller looks the function up in, attribute,
# span name), grouped by layer.  Per-mode scalar kernels (mu_sq, theta_sq,
# dispersion, ...) are left alone: they run ~10^5 times per op and
# lattice.modes already counts their work.
WRAPPED = [
    ("bosegas.cli", "enumerate_shells", "lattice.enumerate_shells"),
    ("bosegas.oracles", "enumerate_shells", "lattice.enumerate_shells"),
    ("bosegas.cli", "modes_up_to", "lattice.modes_up_to"),
    ("bosegas.cli", "depletion_sums", "bogoliubov.depletion_sums"),
    ("bosegas.cli", "mode_coefficients", "bogoliubov.mode_coefficients"),
    ("bosegas.cli", "solve_scattering", "scattering.solve_scattering"),
    ("bosegas.oracles", "solve_scattering", "scattering.solve_scattering"),
    ("bosegas.cli", "energy_functional", "scattering.energy_functional"),
    ("bosegas.cli", "solve_neumann", "scattering.solve_neumann"),
    ("bosegas.cli", "kernel_table", "scattering.kernel_table"),
    ("bosegas.oracles", "potential_fourier", "scattering.potential_fourier"),
    ("bosegas.cli", "build_rho1", "density.build_rho1"),
    ("bosegas.cli", "build_rho2", "density.build_rho2"),
    ("bosegas.cli", "dm_trace_norm_diff", "density.dm_trace_norm_diff"),
    ("bosegas.cli", "dm2_min_eigenvalue", "density.dm2_min_eigenvalue"),
    ("bosegas.cli", "build_basis", "fock.build_basis"),
    ("bosegas.oracles", "build_basis", "fock.build_basis"),
    ("bosegas.oracles", "build_LN", "fock.build_LN"),
    ("bosegas.oracles", "gibbs", "fock.gibbs"),
    ("bosegas.oracles", "expect", "fock.expect"),
    ("bosegas.oracles", "ladder", "fock.ladder"),
    ("bosegas.cli", "adjudicate_variants", "oracles.adjudicate_variants"),
    ("bosegas.oracles", "rotated_number_expectation", "oracles.rotated_number_expectation"),
    ("bosegas.oracles", "pairing_expectation", "oracles.pairing_expectation"),
    ("bosegas.cli", "partition_product_check", "oracles.partition_product_check"),
    ("bosegas.cli", "toy_gibbs_experiment", "oracles.toy_gibbs_experiment"),
    ("bosegas.oracles", "expm", "oracles.expm"),
]
# the closure potential_fourier returns, wrapped on its way out
V_HAT = "scattering.v_hat"


class Tracer:
    """Spans (name, start, end, parent, op id) and result-derived counts."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def count(self, key: str, n: int):
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = [name, start, end, parent, self.op_id]
            self.record(name, result)
            return result

        return traced

    def record(self, name: str, result):
        if name == "lattice.enumerate_shells":
            self.count("lattice.shells", len(result))
            self.count("lattice.modes", sum(s.multiplicity for s in result))
        elif name == "lattice.modes_up_to":
            self.count("lattice.modes", len(result))
        elif name == "fock.build_basis":
            self.count("fock.basis_states", len(result))
        elif name == "fock.build_LN":
            self.count("fock.ln_nnz", result.matrix.nnz)

    def install(self):
        for module, attr, name in WRAPPED:
            namespace = importlib.import_module(module)
            wrapped = self.wrap(name, getattr(namespace, attr))
            if name == "scattering.potential_fourier":
                wrapped = self._wrap_v_hat(wrapped)
            setattr(namespace, attr, wrapped)

    def _wrap_v_hat(self, potential_fourier):
        @functools.wraps(potential_fourier)
        def returning_traced_v_hat(*args, **kwargs):
            return self.wrap(V_HAT, potential_fourier(*args, **kwargs))

        return returning_traced_v_hat


def main() -> int:
    spec = json.loads(sys.argv[1])
    import bosegas.cli  # the imports are part of the op's set-up

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(bosegas.__file__).startswith(src + os.sep):
        print(f"bosegas imported from {bosegas.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if spec["trace"]:
        tracer = Tracer(spec["op_id"])
        tracer.install()
    ready = time.monotonic()

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    codes = [bosegas.cli.main(argv) for argv in spec["argvs"]]
    end = time.perf_counter()
    after = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "ready": ready,
        "op_s": end - start,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "maxrss_kb": after.ru_maxrss,
        "exit_codes": codes,
    }
    if tracer is not None:
        result.update(op_start=start, op_end=end, spans=tracer.spans, counts=tracer.counts)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
