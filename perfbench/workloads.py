"""The four benchmark workloads: inputs, ops, output checks and digests.

Every workload builds its inputs from the seed with freelip's own
generators, with sizes fixed by a stated schedule instead of drawn at
random: costs grow steeply with space size and support size, so a random
size mix would make the figures depend on the seed more than on the code.

Ops call freelip through module attributes (``norms.norm_certificate``), so
the tracer's patches apply to them.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

from freelip import checks, elements, extremal, fileio, functions, generators, norms
from freelip.rationals import format_fraction

from measure import Op
from verify import (
    certificate_problems,
    is_one_lipschitz,
    norm_certificate_problems,
    segment_is_trivial,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".perfbench")


def sized_element(rng: random.Random, space, size, signed: bool = True):
    """Element on ``size`` random support points (or on the given points)."""
    points = rng.sample(list(space.nonbase_points()), size) if isinstance(size, int) else size
    return elements.canonicalize(
        space,
        {
            p: (rng.choice((1, -1)) if signed else 1) * generators.random_rational(rng)
            for p in points
        },
    )


class Workload:
    name = ""
    in_process = True  # false when ops run in child processes

    def setup(self, seed: int):
        raise NotImplementedError

    def ops(self, inputs, tracer) -> list[Op]:
        raise NotImplementedError

    def problems(self, inputs, outputs) -> list[str]:
        """Output checks, run after the timed loop."""
        raise NotImplementedError

    def digest(self, inputs, outputs) -> list:
        """Outputs that cannot depend on which optimal witness is returned."""
        raise NotImplementedError

    def tally(self, outputs) -> tuple[int, int, int]:
        """(units attempted, units failed, cases) of one pass over the outputs."""
        return len(outputs), 0, len(outputs)

    def cleanup(self, inputs) -> None:
        pass


class NormDense(Workload):
    """``norm_certificate`` on signed elements over random n=12 spaces."""

    name = "norm-dense"
    spaces = 76
    per_space = 2
    n = 12
    # Support sizes, cycled over the 152 elements.  Cost grows ~100x from
    # size 2 to size 8, so each size is its own kind and no median or tail
    # falls between two sizes.  No element has more than 8 of the 11
    # non-base points: one full-support element costs about as much as 25 of
    # size 5, and a few of them would decide the total.  Two elements per
    # space, because how hard a space's LPs are varies from space to space
    # and many spaces average it out.
    sizes = (2, 5, 8, 5)

    def setup(self, seed):
        rng = random.Random(seed)
        out = []
        for _ in range(self.spaces):
            space = generators.random_space(rng, self.n)
            for _ in range(self.per_space):
                out.append(sized_element(rng, space, self.sizes[len(out) % len(self.sizes)]))
        return out

    def ops(self, inputs, tracer):
        return [
            Op(f"support-{len(mu.items)}", lambda mu=mu: norms.norm_certificate(mu))
            for mu in inputs
        ]

    def problems(self, inputs, outputs):
        found = []
        for i, (mu, cert) in enumerate(zip(inputs, outputs)):
            if cert is not None:
                found += [f"norm op {i}: {p}" for p in certificate_problems(mu, cert)]
        return found

    def digest(self, inputs, outputs):
        return [format_fraction(c.value) if c else None for c in outputs]


class ExtremalFaces(Workload):
    """Three question kinds: molecule exposedness, perturbation witnesses, normer faces."""

    name = "extremal-faces"
    # Many small draws rather than a few large ones, all from random_space
    # with one space size and one support size per question: how many
    # segments are trivial, how often a witness exists and how many probes
    # normers_of needs vary from space to space, and a kind that mixes
    # generators or sizes puts its median on the boundary between them.
    classify_spaces, classify_pairs, classify_n = 120, 4, 8
    # lam on 3 points and mu on 2 others: about 30% of the pairs have a
    # witness, so the median sits among those without and the tail among
    # those with one (an overlapping mu would mix two support sizes)
    witness_spaces, witness_pairs, witness_n = 32, 4, 7
    witness_sizes = (3, 2)
    # probes per normers_of call vary with the face, so its median needs
    # many calls; n=5 keeps 48 of them within a pass
    normers_spaces, normers_n, normers_size = 48, 5, 2

    def setup(self, seed):
        rng = random.Random(seed)
        classify = []
        for _ in range(self.classify_spaces):
            space = generators.random_space(rng, self.classify_n)
            pairs = rng.sample(space.ordered_pairs(), self.classify_pairs)
            classify += [(space, p, q) for p, q in pairs]
        pairs = []
        lam_size, mu_size = self.witness_sizes
        for _ in range(self.witness_spaces):
            space = generators.random_space(rng, self.witness_n)
            for _ in range(self.witness_pairs):
                points = rng.sample(list(space.nonbase_points()), lam_size + mu_size)
                lam = sized_element(rng, space, points[:lam_size], signed=False)
                pairs.append((lam, sized_element(rng, space, points[lam_size:])))
        normers = [
            sized_element(rng, generators.random_space(rng, self.normers_n), self.normers_size)
            for _ in range(self.normers_spaces)
        ]
        return classify, pairs, normers

    def ops(self, inputs, tracer):
        classify, pairs, normers = inputs
        # a trivial segment costs one face scan, a nontrivial one two more
        # norm certificates; separate kinds keep the median off that boundary
        ops = [
            Op(
                "classify-exposed" if segment_is_trivial(s, p, q) else "classify-split",
                lambda s=s, p=p, q=q: extremal.classify_molecule(s, p, q),
            )
            for s, p, q in classify
        ]
        ops += [
            Op("witness", lambda lam=lam, mu=mu: extremal.almost_positive_witness(lam, mu))
            for lam, mu in pairs
        ]
        ops += [Op("normers", lambda mu=mu: norms.normers_of(mu)) for mu in normers]
        return ops

    def _split(self, inputs, outputs):
        classify, pairs, normers = inputs
        a, b = len(classify), len(classify) + len(pairs)
        return (
            zip(classify, outputs[:a]),
            zip(pairs, outputs[a:b]),
            zip(normers, outputs[b:]),
        )

    def problems(self, inputs, outputs):
        found = []
        classified, witnessed, normed = self._split(inputs, outputs)
        for (space, p, q), verdict in classified:
            if verdict is None:
                continue
            trivial = segment_is_trivial(space, p, q)
            if (verdict.verdict == extremal.EXPOSED) != trivial:
                found.append(f"classify ({p},{q}): verdict {verdict.verdict} vs segment")
            elif not trivial:
                u, w = verdict.counterexample_decomposition
                mol = elements.Molecule(p, q).as_element(space)
                if u == w or (u + w) * Fraction(1, 2) != mol:
                    found.append(f"classify ({p},{q}): midpoint halves do not average back")
        for (lam, mu), witness in witnessed:
            if witness is not None:
                found += [f"witness: {p}" for p in self._witness_problems(lam, mu, witness)]
        for mu, report in normed:
            if report is None:
                continue
            cert = norms.norm_certificate(mu)
            found += [f"normers: {p}" for p in certificate_problems(mu, cert)]
            f = report.witness.values
            space = mu.space
            if report.value != cert.value:
                found.append("normers: value differs from norm_certificate")
            pairing = sum((a * f[p] for p, a in mu.items), Fraction(0))
            if not is_one_lipschitz(space, f) or pairing != report.value:
                found.append("normers: witness is not a 1-Lipschitz normer")
            if any(f[p] != v for p, v in report.fixed_values.items()):
                found.append("normers: a fixed value disagrees with the witness")
            if any(f[x] - f[y] != space.d(x, y) for x, y in report.shared_tight_pairs):
                found.append("normers: a shared tight pair is slack at the witness")
        return found

    @staticmethod
    def _witness_problems(lam, mu, witness) -> list[str]:
        """Re-verify a perturbation witness through the norm engine."""
        v = witness.v
        if v.is_zero():
            return ["perturbation is zero"]
        if not (elements.is_positive(lam + v) and elements.is_positive(lam - v)):
            return ["lam +- v is not positive"]
        found = []
        values = []
        for total in (lam + mu, lam + mu + v, lam + mu - v):
            cert = norms.norm_certificate(total)
            found += certificate_problems(total, cert)
            values.append(cert.value)
        if len(set(values)) != 1:
            found.append(f"perturbation changes the norm: {values}")
        return found

    def digest(self, inputs, outputs):
        classified, witnessed, normed = self._split(inputs, outputs)
        return {
            "verdicts": [v.verdict if v else None for _, v in classified],
            "pair_norms": [
                format_fraction(norms.norm_certificate(lam + mu).value) for (lam, mu), _ in witnessed
            ],
            "normers": [
                [
                    format_fraction(r.value),
                    sorted((p, format_fraction(v)) for p, v in r.fixed_values.items()),
                    sorted(r.shared_tight_pairs),
                ]
                if r
                else None
                for _, r in normed
            ],
        }


class Battery(Workload):
    """The acceptance battery, in-process, at a reduced scale."""

    name = "battery"
    # The seed the acceptance tests and ``check-suite`` use.  At this scale
    # the battery's cost varies 2.7x between corpus seeds (4.8 s against
    # 12.8 s on a 2-vCPU host), because a handful of large-support n=12 samples
    # dominate it; a seeded corpus could not give steady figures, so the
    # battery runs the corpus CI runs and ``--seed`` does not change it.
    seed = 20240521
    scale = Fraction(1, 10)
    max_points = 12

    def _scaled(self, n: int) -> int:
        return max(1, int(n * self.scale))

    def setup(self, seed):
        return generators.random_corpus(self.seed, self._scaled(50), 2, self.max_points)

    def ops(self, inputs, tracer):
        run = lambda: checks.run_check_suite(self.seed, max_points=self.max_points, scale=self.scale)
        return [Op("check-suite", run)]

    def expected_cases(self, corpus) -> dict[int, int]:
        """Case counts the battery must reach, by check position; the rest are seed-drawn."""
        pairs = lambda cap: sum(s.n * (s.n - 1) for s in corpus if s.n <= cap)
        sc = self._scaled
        return {
            0: pairs(12),
            1: pairs(10),
            2: pairs(12),
            4: sc(1000) + 2 * sc(200),
            5: sc(1000),
            6: sc(500),
            7: 2 * sc(500) + sc(200),
            9: pairs(10),
            10: sc(300),
        }

    def problems(self, inputs, outputs):
        results = outputs[0]
        if results is None:
            return []
        if len(results) != 11:
            return [f"battery returned {len(results)} checks, expected 11"]
        found = [f"battery check failed: {r.name}: {r.failures[:2]}" for r in results if not r.passed]
        for i, cases in self.expected_cases(inputs).items():
            if results[i].cases != cases:
                found.append(f"battery {results[i].name}: {results[i].cases} cases, expected {cases}")
        found += [f"battery {r.name}: no cases" for r in results if r.cases == 0]
        return found

    def digest(self, inputs, outputs):
        return [[r.name, r.cases] for r in outputs[0]] if outputs[0] else None

    def tally(self, outputs):
        results = outputs[0] or []
        return len(results), sum(not r.passed for r in results), sum(r.cases for r in results)


class CliLarge(Workload):
    """Sequential ``freelip`` processes on JSON files written during setup."""

    name = "cli-large"
    in_process = False
    big, small = 48, 6
    per_command = 2
    commands = ("norm", "support", "segment", "extend", "classify-molecule", "positive-extremes", "witness")

    def setup(self, seed):
        rng = random.Random(seed)
        work = os.path.join(OUT, f"cli-{os.getpid()}")
        os.makedirs(work, exist_ok=True)
        spaces = []
        for n in (self.big, self.big, self.small, self.small):
            maker = generators.random_space if len(spaces) % 2 == 0 else generators.random_line_subset
            spaces.append(maker(rng, n))
        jobs = []
        for si, space in enumerate(spaces):
            path = self._write(work, f"s{si}.json", fileio.space_payload(space))
            label = space.labels
            sparse = 4 if space.n == self.big else 3
            for c in self.commands:
                for j in range(self.per_command):
                    tag = f"s{si}-{c}-{j}"
                    args = [c, "--space", path]
                    if c in ("norm", "support"):
                        mu = sized_element(rng, space, sparse)
                        args += ["--element", self._write(work, tag + ".json", fileio.element_payload(mu))]
                    elif c in ("segment", "classify-molecule"):
                        p, q = rng.sample(range(space.n), 2)
                        args += ["--pair", f"{label[p]},{label[q]}"]
                        if c == "segment":
                            args += ["--epsilon", "1/10" if j else "0"]
                    elif c == "extend":
                        anchor = rng.randrange(space.n)
                        domain = rng.sample(range(space.n), sparse + 1)
                        pf = functions.partial_function(
                            space,
                            {
                                p: space.d(p, anchor) - space.d(space.base, anchor)
                                for p in domain
                                if p != space.base
                            },
                        )
                        args += ["--function", self._write(work, tag + ".json", fileio.function_payload(pf))]
                    elif c == "witness":
                        lam = sized_element(rng, space, sparse, signed=False)
                        mu = sized_element(rng, space, 1)
                        args += [
                            "--lam", self._write(work, tag + "-lam.json", fileio.element_payload(lam)),
                            "--mu", self._write(work, tag + "-mu.json", fileio.element_payload(mu)),
                        ]
                    jobs.append(("cli48" if space.n == self.big else "cli6", args))
        return work, jobs

    @staticmethod
    def _write(work: str, name: str, payload: dict) -> str:
        path = os.path.join(work, name)
        with open(path, "w") as fh:
            fh.write(fileio.machine_dumps(payload))
        return os.path.relpath(path, ROOT)

    def ops(self, inputs, tracer):
        _, jobs = inputs
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )

        def run(args):
            argv = args + ["--format", "machine"]
            if tracer is None:
                cmd = [sys.executable, "-m", "freelip.cli"] + argv
                proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
                return proc.returncode, proc.stdout, proc.stderr
            spans_path = os.path.join(OUT, f"cli-spans-{os.getpid()}.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"), spans_path] + argv
            i = tracer.open("cli.subprocess")
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
            finally:
                tracer.close(i)
            with open(spans_path) as fh:
                tracer.merge(json.load(fh), parent=i)
            os.remove(spans_path)
            return proc.returncode, proc.stdout, proc.stderr

        return [Op(kind, lambda args=args: run(args)) for kind, args in jobs]

    def _expected(self, args, cache):
        """The in-process answer a command's machine output must match."""
        opts = dict(zip(args[1::2], args[2::2]))
        path = os.path.join(ROOT, opts["--space"])
        if path not in cache:
            cache[path] = fileio.load_space(path)
        space = cache[path]
        load = lambda key: fileio.load_element(os.path.join(ROOT, opts[key]), space)
        command = args[0]
        if command == "norm":
            return {"value": format_fraction(norms.norm_certificate(load("--element")).value)}
        if command == "support":
            return {"support": sorted(space.labels[p] for p in elements.support(load("--element")))}
        if command in ("segment", "classify-molecule"):
            p, q = (space.index(x) for x in opts["--pair"].split(","))
            if command == "classify-molecule":
                trivial = segment_is_trivial(space, p, q)
                return {"verdict": extremal.EXPOSED if trivial else extremal.NOT_EXTREME}
            seg = space.segment(p, q, Fraction(opts["--epsilon"]))
            return {"members": sorted(space.labels[x] for x in seg.members), "trivial": seg.is_trivial()}
        if command == "extend":
            pf = fileio.load_function(os.path.join(ROOT, opts["--function"]), space)
            return {"values": fileio.function_payload(functions.mcshane_extend(pf))["values"]}
        if command == "positive-extremes":
            return {
                "extremes": [
                    fileio.element_payload(e)["coefficients"]
                    for e in extremal.positive_ball_extremes(space)
                ]
            }
        witness = extremal.almost_positive_witness(load("--lam"), load("--mu"))
        return {"present": witness is not None}

    def problems(self, inputs, outputs):
        _, jobs = inputs
        found = []
        cache = {}
        for (_, args), out in zip(jobs, outputs):
            if out is None:
                continue
            code, stdout, stderr = out
            if code != 0:
                found.append(f"{' '.join(args)}: exit {code}: {stderr.strip()[-200:]}")
                continue
            try:
                payload = json.loads(stdout)
            except json.JSONDecodeError:
                found.append(f"{' '.join(args)}: output is not JSON")
                continue
            expected = self._expected(args, cache)
            got = {key: payload.get(key) for key in expected}
            if got != expected:
                found.append(f"{' '.join(args)}: {got} differs from in-process {expected}")
            if args[0] == "norm":
                found += [f"{' '.join(args)}: {p}" for p in self._cli_certificate(args, payload, cache)]
        return found

    @staticmethod
    def _cli_certificate(args, payload, cache) -> list[str]:
        """Check the certificate the CLI printed, read back from its JSON."""
        opts = dict(zip(args[1::2], args[2::2]))
        space = cache[os.path.join(ROOT, opts["--space"])]
        mu = fileio.load_element(os.path.join(ROOT, opts["--element"]), space)
        witness = [Fraction(payload["dual_witness"][label]) for label in space.labels]
        decomposition = [
            ((space.index(p), space.index(q)), Fraction(w)) for p, q, w in payload["primal_witness"]
        ]
        return norm_certificate_problems(mu, Fraction(payload["value"]), witness, decomposition)

    def digest(self, inputs, outputs):
        _, jobs = inputs
        keep = ("value", "support", "members", "trivial", "verdict", "values", "extremes")
        out = []
        for (_, args), result in zip(jobs, outputs):
            payload = json.loads(result[1]) if result and result[0] == 0 else {}
            out.append([args[0], {k: payload[k] for k in keep if k in payload}])
        return out

    def cleanup(self, inputs):
        shutil.rmtree(inputs[0], ignore_errors=True)


WORKLOADS = {w.name: w for w in (NormDense(), ExtremalFaces(), Battery(), CliLarge())}
