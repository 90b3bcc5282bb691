"""One operation of a benchmark workload, in a fresh interpreter.

    python3 perfbench/op.py <mode> <prefix> <cli arg>...

Runs `gaudinlab.cli.main(<cli args>)` in the current directory and writes
its timings to <prefix>.json.  Modes:

  full      the end-to-end timings (set-up, run, evolve, observe, peak RSS)
  setup     stops at the first step (simulate) or after the import (verify)
  untraced  full, on the wall clock alone
  traced    untraced, with every layer traced; also writes <prefix>.trace.json
  profile   untraced, under cProfile; also writes <prefix>.profile.txt

`gaudinlab` is imported from the `src/` directory next to this one and from
nowhere else.

In the full and setup modes the times are read from a SpeedClock, which
runs at a fixed reference speed of the machine; the wall times are kept
beside them.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

PROFILE_TOP = 40
EVOLVE = ("evolve",)
# flows' observation functions as the CLI (simulate) or the verify suites
# call them; on simulate this is the CSV pass plus the diagnostics pass
OBSERVE = ("write_trajectory_csv", "diagnostics", "action_along_curve",
           "poisson_bracket", "plaquette_residual")


# The speed of this kind of shared host changes by tens of percent from one
# second to the next, and a run's wall times with it.  The SpeedClock samples
# that speed all through the operation: every PROBE_INTERVAL_S of CPU time a
# SIGPROF handler times _kernel(), a fixed pure-Python loop, and the program
# time up to the next sample counts as KERNEL_REF_S / (that duration) times
# its wall time.  The kernel's own time is left out of both clocks.
PROBE_INTERVAL_S = 0.01
KERNEL_REPS = 20
KERNEL_REF_S = 0.001


def _kernel():
    acc = 0j
    for k in range(KERNEL_REPS):
        d = {}
        for j in range(60):
            z = complex(j, k) * 0.01
            d[j] = z * z + acc * 1e-9
            acc += d[j] if j % 3 else -d[j] / (1 + abs(z))
        s = sorted(d.values(), key=abs)
        acc += s[0] + len([x for x in s if x.real > 0.2])
    return acc


class SpeedClock:
    """Seconds since `origin` at the reference speed, and in wall time, both
    without the time spent sampling.  Until start() it is the wall clock."""

    def __init__(self, origin):
        self.origin = origin
        self.spent = 0.0      # wall seconds spent in _kernel
        self.t_last = origin  # program time (wall less spent) of the last sample
        self.ref = 0.0        # reference seconds from origin to t_last
        self.scale = 1.0      # reference seconds per wall second since t_last
        self.samples = 0

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        now = t0 - self.spent
        self.ref += (now - self.t_last) * self.scale
        self.t_last = now
        _kernel()
        dt = time.perf_counter() - t0
        self.scale = KERNEL_REF_S / dt
        self.spent += dt
        self.samples += 1

    def start(self):
        self._sample()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def read(self):
        """[reference seconds, wall seconds] since the origin."""
        old = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
        try:
            now = time.perf_counter() - self.spent
            return [self.ref + (now - self.t_last) * self.scale, now - self.origin]
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, old)


CLOCK = SpeedClock(T0)


def _since(start):
    return [b - a for a, b in zip(start, CLOCK.read())]


class _SetupDone(Exception):
    pass


class Stopwatch:
    """Time spent in named functions called from the cli and verify
    namespaces, and the first entry into `evolve`, as [reference, wall]
    seconds.  These calls do not nest, so their times add up."""

    def __init__(self, stop_at_first_step=False):
        self.total = {"evolve": [0.0, 0.0], "observe": [0.0, 0.0]}
        self.first_step = None
        self.trajectory = None
        self._stop = stop_at_first_step

    def _wrap(self, bucket, fn, keep_result=False):
        def timed(*args, **kwargs):
            if bucket == "evolve" and self.first_step is None:
                self.first_step = CLOCK.read()
                if self._stop:
                    raise _SetupDone
            t = CLOCK.read()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.total[bucket] = [a + b for a, b in zip(self.total[bucket], _since(t))]
            if keep_result:
                self.trajectory = result
            return result
        return timed

    def install(self, cli, verify):
        """Only the trajectory `simulate` evolves is kept, for its final state."""
        for module in (cli, verify):
            for bucket, names in (("evolve", EVOLVE), ("observe", OBSERVE)):
                for name in names:
                    if hasattr(module, name):
                        keep = module is cli and bucket == "evolve"
                        setattr(module, name, self._wrap(bucket, getattr(module, name), keep))


def _peak_rss_mb():
    """Peak resident memory of this process since its exec.  ru_maxrss is
    not used: Linux carries it over from the parent across fork and exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _final_state(watch):
    """Final state and smallest resonance margin of the last trajectory."""
    from gaudinlab import models

    traj = watch.trajectory
    if traj is None:
        return None, None
    margin = None
    if traj.model.genus == 1:
        margin = min(float(models.resonance_margin(traj.model, s)) for s in traj.states)
    return models.state_to_dict(traj.states[-1]), margin


def _times(result, **times):
    """Store [reference, wall] pairs: the reference seconds as the metric,
    the wall seconds under "wall"."""
    for name, (ref, wall) in times.items():
        result[name] = ref
        result.setdefault("wall", {})[name] = wall
    result["speed_samples"] = CLOCK.samples


def main(argv):
    mode, prefix, cli_args = argv[0], argv[1], argv[2:]
    if mode in ("full", "setup"):
        CLOCK.start()
    import gaudinlab.cli as cli
    from gaudinlab import verify
    t_import = CLOCK.read()
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"gaudinlab imported from {cli.__file__}, not from {SRC}")
    result = {"mode": mode, "argv": cli_args, "exit_code": None}
    simulate = cli_args[0] == "simulate"
    if mode == "setup" and not simulate:
        CLOCK.stop()
        _times(result, setup_s=t_import)
        return result, prefix

    tracer = None
    if mode == "traced":
        from tracing import Tracer
        tracer = Tracer(run_id=f"{os.getpid()}-{time.time_ns()}").install()
    watch = Stopwatch(stop_at_first_step=(mode == "setup"))
    watch.install(cli, verify)
    profiler = None
    if mode == "profile":
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    t_run = CLOCK.read()
    try:
        result["exit_code"] = cli.main(cli_args)
    except _SetupDone:
        _times(result, setup_s=watch.first_step)
        return result, prefix
    finally:
        run = _since(t_run)
        CLOCK.stop()
        if profiler is not None:
            profiler.disable()
    _times(result, setup_s=watch.first_step if simulate else t_import, run_s=run,
           evolve_s=watch.total["evolve"], observe_s=watch.total["observe"])
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        from tracing import layer_metrics
        result["layers"] = layer_metrics(tracer)
        result["spans"] = len(tracer.start)
        tracer.write(prefix + ".trace.json")
        tracer.uninstall()
    if profiler is not None:
        import pstats
        with open(prefix + ".profile.txt", "w") as fh:
            stats = pstats.Stats(profiler, stream=fh).strip_dirs()
            stats.sort_stats("tottime").print_stats(PROFILE_TOP)
            stats.sort_stats("cumulative").print_stats(PROFILE_TOP)
    if simulate:
        result["final_state"], result["min_resonance_margin"] = _final_state(watch)
    return result, prefix


if __name__ == "__main__":
    try:
        res, prefix = main(sys.argv[1:])
    except Exception:
        traceback.print_exc()
        sys.exit(1)
    with open(prefix + ".json", "w") as fh:
        json.dump(res, fh)
