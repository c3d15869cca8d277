"""Death mid-checkpoint: the window between result arrival and journal flush.

The supervised pool checkpoints each job the moment its result arrives
(``on_result`` → ``CheckpointJournal.put``).  Two processes can die inside
that window:

* the **supervisor** — SIGKILLed after a worker has sent a result but
  before the journal line for it is flushed.  The result is lost with the
  process; on resume, exactly the unjournaled jobs must be recomputed and
  every journaled one replayed from disk;
* a **worker** — SIGKILLed mid-job.  The supervisor charges a
  ``WorkerCrashed`` attempt, replaces the worker, and the retried job's
  result still lands in the journal exactly once.

Both are integration tests against real processes and real SIGKILL, not
monkeypatched stand-ins.  The killed supervisor runs in its own session,
so the test can reap its orphaned pool worker afterwards.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.runtime.evalcache import evaluation_cache_key
from repro.runtime.evaluate import EvaluationRequest, EvaluationRuntime
from repro.runtime.journal import CheckpointJournal
from repro.runtime.pool import PoolConfig, RetryPolicy
from repro.sim.params import MachineConfig
from repro.workloads.generators import working_set_addresses
from repro.workloads.trace import Trace

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

TRACE_ACCESSES = 300
TRACE_SEED = 11
N_JOBS = 4

#: The supervisor-side script: run a 4-job pooled batch whose journal
#: SIGKILLs the *whole process* right before flushing the final job's
#: entry — i.e. after the worker already sent the result over its pipe.
#: argv: <journal_path>
KILLED_RUN_SCRIPT = """
import os, signal, sys
from repro.runtime.evalcache import evaluation_cache_key
from repro.runtime.evaluate import EvaluationRequest, EvaluationRuntime
from repro.runtime.journal import CheckpointJournal
from repro.runtime.pool import PoolConfig
from repro.sim.params import MachineConfig
from repro.workloads.generators import working_set_addresses
from repro.workloads.trace import Trace

TRACE_ACCESSES = {accesses}
TRACE_SEED = {seed}
N_JOBS = {n_jobs}


trace = Trace.from_memory_addresses(
    working_set_addresses(TRACE_ACCESSES, footprint_bytes=64 * 1024,
                          seed=TRACE_SEED),
    compute_per_access=1, name="ckpt", seed=TRACE_SEED,
)
LAST_KEY = evaluation_cache_key(trace, MachineConfig(), N_JOBS - 1, True)


class DyingJournal(CheckpointJournal):
    def put(self, key, value):
        if key == LAST_KEY:
            # The worker's result for this job has been received (we are in
            # the on_result checkpoint callback) but not yet flushed: this
            # is precisely the crash window under test.
            os.kill(os.getpid(), signal.SIGKILL)
        super().put(key, value)


requests = [
    EvaluationRequest(config=MachineConfig(), trace=trace, seed=i)
    for i in range(N_JOBS)
]
runtime = EvaluationRuntime(
    pool=PoolConfig(max_workers=1, timeout_s=120),
    journal=DyingJournal(sys.argv[1]),
)
runtime.evaluate(requests)
raise SystemExit("unreachable: the journal must have killed this process")
"""


def _trace():
    return Trace.from_memory_addresses(
        working_set_addresses(TRACE_ACCESSES, footprint_bytes=64 * 1024,
                              seed=TRACE_SEED),
        compute_per_access=1, name="ckpt", seed=TRACE_SEED,
    )


def _requests(trace):
    return [
        EvaluationRequest(config=MachineConfig(), trace=trace, seed=i)
        for i in range(N_JOBS)
    ]


def _key(trace, seed):
    return evaluation_cache_key(trace, MachineConfig(), seed, True)


def _live_group_members(pgid):
    """Pids of the process group *pgid* that are neither gone nor zombies."""
    live = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # Fields after the parenthesised command: state, ppid, pgrp, ...
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            live.append(int(entry.name))
    return live


class TestSupervisorDeathMidCheckpoint:
    def test_sigkill_between_result_send_and_journal_flush(self, tmp_path):
        journal_path = tmp_path / "ckpt.jsonl"
        script = KILLED_RUN_SCRIPT.format(
            accesses=TRACE_ACCESSES, seed=TRACE_SEED, n_jobs=N_JOBS
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        # Capture into files, not pipes: the forked pool worker inherits the
        # supervisor's stdout/stderr, so after the SIGKILL a pipe would stay
        # open until the orphaned worker noticed — run() would block on EOF.
        # The orphaned pool worker stays in the script's session, so the
        # whole group can be killed once the run is over.
        stderr_path = tmp_path / "stderr.txt"
        with stderr_path.open("wb") as stderr_fh:
            proc = subprocess.Popen(
                [sys.executable, "-c", script, str(journal_path)],
                stdout=subprocess.DEVNULL, stderr=stderr_fh,
                env=env, start_new_session=True,
            )
            try:
                returncode = proc.wait(timeout=300)
            finally:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + 10.0
        while _live_group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _live_group_members(proc.pid) == []
        # The run died by SIGKILL, not by finishing or erroring out.
        assert returncode == -signal.SIGKILL, stderr_path.read_text()

        # With one worker, jobs complete in submission order: every job but
        # the last was flushed before the kill; the last one's result died
        # with the supervisor.
        trace = _trace()
        survived = CheckpointJournal(journal_path)
        assert sorted(survived.keys()) == sorted(
            _key(trace, i) for i in range(N_JOBS - 1)
        )
        assert survived.dropped_lines == 0  # each line was flushed whole

        # Exact resume: only the lost job is recomputed.
        resumed = EvaluationRuntime(
            pool=PoolConfig(max_workers=1, timeout_s=120), journal=journal_path
        )
        out = resumed.evaluate(_requests(trace))
        assert resumed.counters.journal_hits == N_JOBS - 1
        assert resumed.counters.simulations == 1
        assert [o.source for o in out] == ["journal"] * (N_JOBS - 1) + ["simulated"]

        # And the recomputed batch is bit-identical to a clean direct run.
        clean = EvaluationRuntime().evaluate(_requests(trace))
        for a, b in zip(out, clean):
            assert a.result().to_dict() == b.result().to_dict(), a.key


def _kill_worker_once(marker_path, config, trace, seed):
    """Worker-side job body: SIGKILL this worker on the first attempt."""
    from pathlib import Path

    from repro.sim.stats import simulate_and_measure

    marker = Path(marker_path)
    if not marker.exists():
        marker.write_text("died once")
        os.kill(os.getpid(), signal.SIGKILL)
    _, stats = simulate_and_measure(config, trace, seed=seed)
    return stats


def _plain_simulate(config, trace, seed):
    from repro.sim.stats import simulate_and_measure

    _, stats = simulate_and_measure(config, trace, seed=seed)
    return stats


class TestWorkerDeathMidJob:
    def test_sigkilled_worker_retries_and_journals_exactly_once(self, tmp_path):
        from repro.runtime.pool import EvaluationPool, Job

        journal = CheckpointJournal(tmp_path / "worker.jsonl")
        trace = _trace()
        marker = tmp_path / "died.marker"
        pool = EvaluationPool(PoolConfig(
            max_workers=2, timeout_s=120,
            retry=RetryPolicy(max_retries=2, backoff_base=0.01),
        ))
        jobs = [
            Job(key="victim", fn=_kill_worker_once,
                args=(str(marker), MachineConfig(), trace, 0)),
            Job(key="bystander", fn=_plain_simulate,
                args=(MachineConfig(), trace, 1)),
        ]

        def checkpoint(result):
            if result.ok:
                seed = 0 if result.key == "victim" else 1
                journal.put(_key(trace, seed), result.value.to_dict())

        results = pool.run(jobs, on_result=checkpoint)
        assert results["victim"].ok and results["bystander"].ok
        assert results["victim"].crashes == 1
        assert pool.worker_restarts == 1

        # Exactly one journal line per job — the crashed attempt did not
        # checkpoint anything, the retry checkpointed once.
        reloaded = CheckpointJournal(journal.path)
        assert sorted(reloaded.keys()) == sorted([_key(trace, 0), _key(trace, 1)])
        lines = [ln for ln in journal.path.read_text().splitlines() if ln]
        assert len(lines) == 2

        # A resumed runtime replays both from the journal: zero simulations.
        requests = _requests(trace)[:2]
        resumed = EvaluationRuntime(journal=journal.path)
        out = resumed.evaluate(requests)
        assert resumed.counters.simulations == 0
        clean = EvaluationRuntime().evaluate(requests)
        for a, b in zip(out, clean):
            assert a.result().to_dict() == b.result().to_dict(), a.key
