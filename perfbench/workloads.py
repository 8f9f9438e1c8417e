"""The benchmark's workloads: set-up, one timed iteration, and its output check.

Every workload calls the program through module attributes
(``matrix.run_interference_matrix(...)``), never through names bound at
import time, so the layer wrappers the traced run installs see every call.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional

#: The archetypes of the 4-archetype matrix (the campaign bench's set).
MATRIX_ARCHETYPES = ["checkpoint", "analytics", "smallfile", "incast"]
SCALE = "tiny"


def dir_bytes(path: Path) -> int:
    """Bytes in the regular files under ``path`` (0 if it does not exist)."""
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def matrix_digest(matrix: Any) -> str:
    """The canonical ``matrix.json`` digest that ``BENCH_campaign.json`` pins."""
    canonical = json.dumps(matrix.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Workload:
    """One set of inputs.  Subclasses fill in the four hooks.

    ``tasks`` is how many campaign tasks (experiments or matrix tasks) one
    iteration attempts and ``simulations`` how many simulations they imply;
    both follow from the input alone.
    """

    name = ""
    tasks = 0
    simulations = 0

    def __init__(self, work: Path, seed: int, expected: Dict[str, Any]) -> None:
        self.work = work
        #: Seed 0 is the preset's own seed, i.e. the canonical inputs.
        self.seed_option: Optional[int] = None if seed == 0 else seed
        self.canonical = seed == 0
        self.expected = expected
        self.problems: List[str] = []
        # Per-iteration figures the traced run reports beside the ledger.
        self.cache_bytes = self.store_bytes = 0
        self.claims_ratio = 0.0

    def setup(self) -> None:
        """Untimed preparation (besides imports)."""

    def iterate(self, i: int) -> Any:
        """One timed iteration; returns what :meth:`check` needs."""
        raise NotImplementedError

    def check(self, i: int, out: Any) -> bool:
        """Untimed: verify iteration ``i``'s outputs and clean up after it."""
        raise NotImplementedError

    def finish(self) -> bool:
        """Untimed whole-run check after the last iteration."""
        return not self.problems

    def fail(self, message: str) -> bool:
        self.problems.append(message)
        return False

    def layer_extras(self) -> Dict[str, float]:
        """Layer metrics of the last iteration that the workload measures."""
        return {
            "runner.cache.bytes_written": float(self.cache_bytes),
            "runner.store.bytes_written": float(self.store_bytes),
            "analysis.comparison.claims_agree_ratio": self.claims_ratio,
        }


class CampaignTiny(Workload):
    """The paper campaign: every table/figure experiment at tiny/quick."""

    name = "campaign-tiny"

    def setup(self) -> None:
        from repro.experiments import registry

        self.tasks = len(registry.list_experiments())
        self.simulations = int(self.expected["simulations"])

    def iterate(self, i: int) -> Any:
        from repro.analysis import campaign

        result = campaign.run_campaign(SCALE, quick=True, jobs=1)
        return result, campaign.campaign_to_markdown(result)

    def check(self, i: int, out: Any) -> bool:
        result, report = out
        self.claims_ratio = result.n_agreeing / result.n_claims
        digest = hashlib.sha256(report.encode("utf-8")).hexdigest()
        claims = [result.n_agreeing, result.n_claims]
        if result.n_experiments != self.tasks:
            return self.fail(f"{result.n_experiments} of {self.tasks} experiments ran")
        if claims != self.expected["claims"]:
            return self.fail(f"claims {claims} != {self.expected['claims']}")
        if digest != self.expected["report_sha256"]:
            return self.fail(f"report sha256 {digest} != recorded")
        return True


class MatrixCold(Workload):
    """The 4-archetype matrix into an empty cache, rendered and stored."""

    name = "matrix-cold"

    def setup(self) -> None:
        n = len(MATRIX_ARCHETYPES)
        self.tasks = self.simulations = n + n * (n + 1) // 2
        self.digest: Optional[str] = (
            self.expected["matrix_sha256"] if self.canonical else None
        )

    def iterate(self, i: int) -> Any:
        from repro.scenarios import matrix

        root = self.work / f"cold-{i}"
        result = matrix.run_interference_matrix(
            MATRIX_ARCHETYPES, SCALE, jobs=1,
            cache_dir=str(root / "cache"), seed=self.seed_option,
        )
        matrix.matrix_artifacts(result)
        matrix.store_matrix(result, str(root / "store"))
        return result

    def check(self, i: int, out: Any) -> bool:
        root = self.work / f"cold-{i}"
        self.cache_bytes = dir_bytes(root / "cache")
        self.store_bytes = dir_bytes(root / "store")
        shutil.rmtree(root)
        n = len(MATRIX_ARCHETYPES)
        if out.failed_tasks:
            return self.fail(f"{len(out.failed_tasks)} matrix tasks failed")
        if len(out.alone) != n or len(out.cells) != n * (n + 1) // 2:
            return self.fail(f"matrix has {len(out.alone)} alone runs and "
                             f"{len(out.cells)} pair cells")
        digest = matrix_digest(out)
        if self.digest is None:
            # Any other seed: every iteration must reproduce the first.
            self.digest = digest
        if digest != self.digest:
            return self.fail(f"matrix sha256 {digest} != {self.digest}")
        return True


class MatrixWarm(Workload):
    """Reruns of the 8-archetype matrix, every task served from the cache."""

    name = "matrix-warm"

    def setup(self) -> None:
        from repro.scenarios import archetypes, matrix

        self.names = archetypes.archetype_names()
        n = len(self.names)
        self.tasks = n + n * (n + 1) // 2
        self.cache = self.work / "warm" / "cache"
        self.store = self.work / "warm" / "store"
        # Two workers shorten the fill; the cached payloads are the same.
        filled = matrix.run_interference_matrix(
            self.names, SCALE, jobs=2, cache_dir=str(self.cache),
            seed=self.seed_option,
        )
        self.reference = matrix.matrix_artifacts(filled)
        self.filled_bytes = dir_bytes(self.cache)
        digest = matrix_digest(filled)
        if filled.failed_tasks or len(filled.cells) != n * (n + 1) // 2:
            self.fail("the cache fill did not complete every task")
        elif self.canonical and digest != self.expected["matrix_sha256"]:
            self.fail(f"fill matrix sha256 {digest} != recorded")

    def iterate(self, i: int) -> Any:
        from repro.scenarios import matrix

        result = matrix.run_interference_matrix(
            self.names, SCALE, jobs=1, cache_dir=str(self.cache),
            seed=self.seed_option,
        )
        artifacts = matrix.matrix_artifacts(result)
        return artifacts, matrix.store_matrix(result, str(self.store))

    def check(self, i: int, out: Any) -> bool:
        artifacts, run_dir = out
        if i == 0:
            self.store_bytes = dir_bytes(Path(run_dir))
        if artifacts != self.reference:
            return self.fail(f"rerun {i} artifacts differ from the cache fill")
        return True

    def finish(self) -> bool:
        if dir_bytes(self.cache) != self.filled_bytes:
            self.fail("warm reruns wrote to the cache (a probe missed)")
        return super().finish()


WORKLOADS = {
    w.name: w for w in (CampaignTiny, MatrixCold, MatrixWarm)
}
