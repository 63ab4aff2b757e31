"""The benchmark's workloads and their correctness gates.

Each workload is a closed loop from one process and one client: the next
item starts only when the previous one has returned.  An item is one public
call into ksum3 (`run`, which is timed); its answer is then checked against
an independent reference (`check`, outside the timed region), and every
element that raised a `Ksum3Error` or failed the check counts as failed.
Nothing is retried or skipped.  Inputs come from the seed alone.

The workloads call ksum3 through module attributes (`valuation.descent`,
not a name bound at import), so that a traced run sees their calls.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from ksum3 import cli, curve, oracle, valuation
from ksum3.errors import Ksum3Error, OrderThreePoint
from ksum3.field import Field, get_field

# GF(3^40) as F_3[t]/(t^40 + t + 2), constant term first; t is primitive.
M40_MODULUS = "t:21" + "0" * 38 + "1"


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    modulus: Optional[str] = None   # None: the builtin modulus for m
    setup_repeats: int = 3          # fresh-process set-ups per untraced run
    trace_rate: float = 1.0         # traced items per second of --seconds
    workers: int = 1

    def build_field(self) -> Field:
        return get_field(self.m, self.modulus)

    def trace_items(self, seconds: int) -> int:
        """Items in a traced run: a fixed number, so counts repeat exactly."""
        return max(1, round(self.trace_rate * seconds))

    def units(self, fld: Field, item) -> int:
        """Elements of GF(3^m)* that one item covers."""
        return 1

    def key(self, out) -> Any:
        """The part of an answer that must not change under tracing."""
        return out


@dataclass(frozen=True)
class Scan(Workload):
    """`ksum3 --m <m> --seed <seed> --workers <w> scan`, in-process through
    `cli.main`, with the default oracle cap, so that every record carries
    `K` and `agree`.  One item is one whole-field scan."""

    def reference(self, fld: Field) -> int:
        """Records a whole-field scan must print: one per a in F*."""
        return 3 ** fld.m - 1

    def trace_items(self, seconds: int) -> int:
        return 1

    def inputs(self, fld: Field, seed: int) -> Iterator[list]:
        argv = ["--m", str(self.m), "--seed", str(seed),
                "--workers", str(self.workers), "scan"]
        if self.modulus is not None:
            argv[2:2] = ["--modulus", self.modulus]
        while True:
            yield argv

    def units(self, fld: Field, item) -> int:
        return fld.q - 1

    def run(self, fld: Field, argv: list) -> str:
        buf = io.StringIO()
        rc = cli.main(list(argv), out=buf)
        if rc != 0:
            raise Ksum3Error(f"ksum3 scan exited with code {rc}")
        return buf.getvalue()

    def check(self, fld: Field, argv: list, text: str) -> int:
        """Failed records: every one must have `agree: true`, every a must
        appear once, and the histogram must count one record per a."""
        want = self.reference(fld)
        lines = text.splitlines()
        try:
            records = [json.loads(line) for line in lines[:-1]]
            hist_total = sum(json.loads(lines[-1])["summary"]["histogram"].values())
            indices = [r["index"] for r in records]
        except (ValueError, KeyError, IndexError, TypeError):
            return want
        failed = sum(1 for r in records if r.get("agree") is not True)
        failed += len(set(range(1, fld.q)) - set(indices))
        failed += abs(len(records) - want) + abs(hist_total - want)
        return min(failed, want)


@dataclass(frozen=True)
class Descent(Workload):
    """For each seeded a: `CurveParams.make`, then `valuation.descent` with
    the default one-node policy.  The answer is the depth `graph.t`."""

    def reference(self, fld: Field, a) -> int:
        return oracle.val3(oracle.kloosterman_sum(fld, a).value, fld.m)

    def inputs(self, fld: Field, seed: int) -> Iterator:
        rng = random.Random(seed)
        while True:
            yield fld.el(rng.randrange(1, fld.q))

    def run(self, fld: Field, a) -> int:
        return valuation.descent(curve.CurveParams.make(fld, a)).t

    def check(self, fld: Field, a, depth: int) -> int:
        return int(depth != self.reference(fld, a))


@dataclass(frozen=True)
class DivAnswer:
    params: curve.CurveParams
    div9: bool
    div27: Optional[bool]
    start: curve.Point
    tripled: Any          # triple_x(start.x); None when 3 * start = O


@dataclass(frozen=True)
class DivTest(Workload):
    """For each seeded a: `CurveParams.make` (a cube root), `div9`, `div27`
    when `div9` holds, `sample_generator_candidate` and one `triple_x`."""

    def reference(self, params: curve.CurveParams) -> Optional[bool]:
        """9 | K(a) iff div3_obstruction(a^(1/3)) == 0.

        With xi = a^(1/3), rhs(xi) = xi^3 + xi^2 - a = xi^2, so y = xi is a
        square root of it and the obstruction Tr(a y / xi^3) needs no
        general square root.  None when xi is not a cube root of a.
        """
        xi, a = params.a_cuberoot, params.a
        if xi ** 3 != a:
            return None
        return (a * xi / xi ** 3).trace() == 0

    def inputs(self, fld: Field, seed: int) -> Iterator[tuple]:
        rng = random.Random(seed)
        while True:
            yield fld.el(rng.randrange(1, fld.q)), rng.getrandbits(64)

    def run(self, fld: Field, item) -> DivAnswer:
        a, start_seed = item
        params = curve.CurveParams.make(fld, a)
        d9 = valuation.div9(fld, a)
        d27 = valuation.div27(fld, a) if d9 else None
        p = curve.sample_generator_candidate(params, random.Random(start_seed))
        try:
            tripled = curve.triple_x(params, p.x)
        except OrderThreePoint:   # start.x = a^(1/3); only in tiny fields
            tripled = None
        return DivAnswer(params, d9, d27, p, tripled)

    def check(self, fld: Field, item, ans: DivAnswer) -> int:
        """div9 against the obstruction, triple_x against the group law, and
        the start point on E(a) with a nonzero obstruction."""
        params, p = ans.params, ans.start
        x, y, a = p.x, p.y, params.a
        try:
            ok = (ans.div9 == self.reference(params)
                  and ans.tripled == curve.scalar_mul(params, 3, p).x
                  and y * y == x ** 3 + x ** 2 - a
                  and (a * y / x ** 3).trace() != 0)
        except Ksum3Error:
            ok = False
        return int(not ok)

    def key(self, ans: DivAnswer) -> tuple:
        return (ans.params.a_cuberoot.code, ans.div9, ans.div27,
                ans.start.x.code, ans.start.y.code, getattr(ans.tripled, "code", None))


WORKLOADS = {
    wl.name: wl for wl in (
        Scan("scan-m8", m=8, workers=2),
        Descent("descent-m10", m=10, trace_rate=10.0),
        DivTest("divtest-m40", m=40, modulus=M40_MODULUS, trace_rate=1.0),
    )
}
