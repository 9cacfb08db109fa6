"""Command-line interface: the pipeline as subcommands with deterministic,
machine-readable output.

A call builds the argument parser of the subcommand its first argument
names, and no other; help, an unknown name and an option before the command
build every subcommand's.  Usage lines and errors read the same either way.

Exit codes: 0 success, 1 validation error, 2 I/O error.  Results go to
stdout (or --out); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from typing import List, Optional

from . import codec, model
from .config import Config
from .match import EmptyViableSetError, viable_set
from .plan import MissingClockError, TtcRangeError, WalltimeRangeError, plan_model, plan_random
from .predict import (ClockRangeError, InflationRangeError, ProfileConsistencyError,
                      UnknownTaskError, load_clocks, load_profiles, predict_sequential_cycles,
                      predict_tx, profiles_by_task)
from .queuewait import NoQueueHistoryError, QueueWaitStore, _parse_iso8601
from .sim import MissingBehaviorError, compare, simulate


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = 1):
        super().__init__(message)
        self.exit_code = exit_code


def _read(path: str, read):
    """``read`` the file at ``path`` as a text stream.  The stream drops a
    UTF-8 byte-order mark, as spreadsheets write one, and is opened with
    ``newline=""``, as `QueueWaitStore.ingest_csv` reads one: a lone ``\\r``
    ends a line, as ``\\n`` and ``\\r\\n`` do."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return read(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", exit_code=2) from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_json(path: str):
    """The JSON value of the file at ``path`` (see `_read`); an object that
    repeats a key is an error, where `json.load` would keep the last."""
    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()  # the first key, in file order, that repeats an earlier one
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise CliError(f"{path}: duplicate key {key!r}")
        return obj

    try:
        return _read(path, lambda fh: json.load(fh, object_pairs_hook=unique))
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError:
        raise CliError(f"{path}: JSON nested too deeply") from None


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc}", exit_code=2) from exc
    else:
        sys.stdout.write(text)


def _load(path: str, decode):
    """Read ``path`` as JSON and ``decode`` it; format errors name the file."""
    obj = _read_json(path)
    try:
        return decode(obj)
    except codec.DecodeError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_config(path: Optional[str]) -> Config:
    return _load(path, codec.CONFIG.decode) if path else Config()


# the config's maps keyed by an id of another input, by what the id names
_ID_MAPS = {"resource": ("inflation_factors", "resource_queues"), "task": ("profile_overrides",)}


def _check_ids(config: Config, config_path: Optional[str], what: str, ids, source: str) -> None:
    """Every key of the config's maps of ``what`` (``"resource"`` or
    ``"task"``) is one of ``ids``, read from ``source``: a misspelt id would
    silently get the default inflation, queue or profile.  ``ids`` is
    iterated once per map, so one pass over a workload's tasks serves the
    task map without a set of every task id."""
    for name in _ID_MAPS[what]:
        unknown = getattr(config, name).keys() - ids
        if unknown:
            key = min(unknown)
            raise CliError(f"{config_path}: {name}.{key}: no {what} {key!r} in {source}")


def _load_csv(path: str, load):
    """``load`` the CSV at ``path`` (see `_read`); its skipped rows are
    warnings on stderr, and an error in the file as a whole names it."""
    try:
        result, warnings = _read(path, load)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc
    for w in warnings:
        print(f"warning: {path}: {w}", file=sys.stderr)
    return result


def _time(text: str) -> float:
    try:
        return _parse_iso8601(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an ISO-8601 time: {text!r}") from None


def _positive(parse, what: str):
    """An argparse type: ``parse`` the text as ``what`` and require a value > 0."""

    def check(text: str):
        try:
            value = parse(text)
            if value > 0:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"not {what} > 0: {text!r}")

    return check


def _cmd_aggregate(args) -> None:
    task = _load(args.task, codec.TASK.decode)
    _emit(model.canonical_dumps(codec.TASK.encode(model.aggregate(task))), args.out)


def _cmd_match(args) -> None:
    task = _load(args.task, codec.TASK.decode)
    pool = _load(args.pool, codec.POOL.decode)
    vs = viable_set(task, pool)
    _emit(model.canonical_dumps(codec.VIABLE_SET.encode(vs)), args.out)


def _cmd_predict(args) -> None:
    profiles = _load_csv(args.profiles, load_profiles)
    clocks = _load(args.clocks, load_clocks)
    config = _load_config(args.config)
    _check_ids(config, args.config, "resource", clocks, args.clocks)
    by_task = profiles_by_task(profiles)
    task_ids = [args.task_id] if args.task_id else sorted(by_task)
    reports = []
    for task_id in task_ids:
        if task_id not in by_task:
            raise CliError(f"{args.profiles}: no baseline profiles for task {task_id!r}")
        cycles = predict_sequential_cycles(by_task[task_id])
        for rid in sorted(clocks):
            report = predict_tx(cycles.mean, clocks[rid], task_id=task_id,
                                inflation=config.inflation_factors.get(rid, 1.0))
            reports.append(codec.PREDICTION.encode((report, cycles)))
    _emit(model.canonical_dumps(reports), args.out)


def _cmd_queue_wait(args) -> None:
    store = QueueWaitStore()
    _load_csv(args.history, store.ingest_csv)
    config = _load_config(args.config)
    estimate = store.estimate_tq(args.machine, args.queue, args.walltime, args.cores,
                                 args.now, config.window_s, config.buckets)
    _emit(model.canonical_dumps(codec.QUEUE_ESTIMATE.encode(estimate)), args.out)


def _cmd_select(args) -> None:
    needed = ("seed",) if args.strategy == "random" else ("profiles", "clocks", "history", "now")
    missing = [f"--{name}" for name in needed if getattr(args, name) is None]
    if missing:
        raise CliError(f"the {args.strategy} strategy requires {', '.join(missing)}")
    workload = _load(args.workload, codec.WORKLOAD.decode)
    pool = _load(args.pool, codec.POOL.decode)
    config = _load_config(args.config)
    _check_ids(config, args.config, "resource", {r.resource_id for r in pool}, args.pool)
    _check_ids(config, args.config, "task", (i for _, ids in workload.kinds for i in ids),
               args.workload)
    if args.strategy == "model":
        profiles = _load_csv(args.profiles, load_profiles)
        clocks = _load(args.clocks, load_clocks)
        store = QueueWaitStore()
        _load_csv(args.history, store.ingest_csv)
    if args.strategy == "random":
        plan = plan_random(workload, pool, args.seed, config.cores_per_task)
    else:
        plan = plan_model(workload, pool, profiles, clocks, store, config, now=args.now)
    _emit(model.canonical_dumps(plan.to_json()), args.out)


def _cmd_simulate(args) -> None:
    scenario = _load(args.scenario, codec.SCENARIO.decode)
    plan = plan_path = scenario["plan"]
    if isinstance(plan, str):
        plan = _load(plan, codec.PLAN.decode)
    behaviors = behaviors_path = scenario["behaviors"]
    if isinstance(behaviors, str):
        behaviors = _load(behaviors, codec.BEHAVIORS.decode)
    behaviors = {b.resource_id: b for b in behaviors}
    try:
        result = simulate(plan, behaviors, trials=scenario["trials"], seed=scenario["seed"])
    except MissingBehaviorError as exc:
        of = plan_path if isinstance(plan_path, str) else "its plan"
        blamed = behaviors_path if isinstance(behaviors_path, str) else args.scenario
        raise CliError(f"{blamed}: {exc} of {of}") from exc
    except ValueError as exc:  # a zero-task plan, or a trial whose TTC overflows
        raise CliError(f"{args.scenario}: {exc}") from exc
    _emit(model.canonical_dumps(result.to_json()), args.out)
    if args.trials_csv:
        buf = io.StringIO()
        result.write_trials_csv(buf)
        _emit(buf.getvalue(), args.trials_csv)


def _load_result(path: str, strategy: str):
    """The simulation result at ``path``, which must be of ``strategy``."""
    result = _load(path, codec.RESULT.decode)
    if result.strategy != strategy:
        raise CliError(f"{path}: strategy {result.strategy!r}, not {strategy!r}")
    return result


def _cmd_report(args) -> None:
    model_result = _load_result(args.model, "model")
    random_result = _load_result(args.random, "random")
    if model_result.workload_id != random_result.workload_id:
        raise CliError(f"mismatched workloads: {model_result.workload_id!r} in {args.model} "
                       f"vs {random_result.workload_id!r} in {args.random}")
    try:
        rep = compare(model_result, random_result)
    except ValueError as exc:  # a random mean TTC of 0, or one too small for a finite reduction
        raise CliError(f"{args.random}: {exc}") from exc
    lines = [",".join(codec.REPORT.columns)]
    for metric, entry in sorted(rep["metrics"].items()):
        for group in ("model", "random"):
            # a missing stddev (one trial) is an empty cell
            stddev = entry[f"{group}_sample_stddev"]
            lines.append(f"{group},{metric},{entry[f'{group}_mean']!r},"
                         f"{'' if stddev is None else repr(stddev)}")
    lines.append(f"comparison,ttc_reduction_pct,{rep['ttc_reduction_pct']!r},")
    _emit("\n".join(lines) + "\n", args.out)


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 1, the validation-error code; argparse's own 2
    would read as an I/O error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _PrintSchema(argparse.Action):
    """``--schema``: print the subcommand's formats (``const``: its input
    formats by flag and its output format) and exit while parsing, before
    argparse checks the required flags."""

    def __call__(self, parser, namespace, values, option_string=None):
        inputs, output = self.const
        doc = {"input": {flag: fmt.schema() for flag, fmt in inputs.items()},
               "output": output.schema()}
        sys.stdout.write(model.canonical_dumps(doc))
        parser.exit()


def _file(flag, fmt, help_text, required=True):
    """A file argument; ``--schema`` lists its format ``fmt`` under ``flag``."""
    return flag, fmt, {"required": required, "help": help_text}


def _opt(flag, **kwargs):
    return flag, None, kwargs


# name: (handler, help, output format, arguments after --out and --schema),
# in the order of the top-level usage
_SUBCOMMANDS = {
    "aggregate": (_cmd_aggregate, "collapse a task's instructions into totals", codec.TASK, [
        _file("--task", codec.TASK, "task JSON file")]),
    "match": (_cmd_match, "compute a task's viable resources", codec.VIABLE_SET, [
        _file("--task", codec.TASK, "task JSON file"),
        _file("--pool", codec.POOL, "resource pool JSON file")]),
    "predict": (_cmd_predict, "predict execution times from profiles",
                codec.Arr(codec.PREDICTION), [
        _file("--profiles", codec.PROFILES, "baseline profile CSV"),
        _file("--clocks", codec.CLOCKS, "clock specification JSON"),
        _opt("--task-id", help="restrict to one task id"),
        _file("--config", codec.CONFIG, "config JSON", required=False)]),
    "queue-wait": (_cmd_queue_wait, "estimate queue wait from history", codec.QUEUE_ESTIMATE, [
        _file("--history", codec.HISTORY, "queue-wait history CSV"),
        _opt("--machine", required=True),
        _opt("--queue", required=True),
        _opt("--walltime", type=_positive(codec.number, "a finite number"), required=True,
             help="requested walltime in seconds"),
        _opt("--cores", type=_positive(int, "an integer"), required=True,
             help="requested core count"),
        _opt("--now", type=_time, required=True, help="query time, ISO-8601 UTC"),
        _file("--config", codec.CONFIG, "config JSON", required=False)]),
    "select": (_cmd_select, "plan a workload over a pool", codec.PLAN, [
        _file("--workload", codec.WORKLOAD, "workload JSON file"),
        _file("--pool", codec.POOL, "resource pool JSON file"),
        _file("--profiles", codec.PROFILES, "baseline profile CSV (model strategy)",
              required=False),
        _file("--clocks", codec.CLOCKS, "clock specification JSON (model strategy)",
              required=False),
        _file("--history", codec.HISTORY, "queue-wait history CSV (model strategy)",
              required=False),
        _file("--config", codec.CONFIG, "config JSON", required=False),
        _opt("--now", type=_time, help="planning time, ISO-8601 UTC (model strategy)"),
        _opt("--strategy", choices=["model", "random"], default="model"),
        _opt("--seed", type=int, help="PRNG seed (random strategy)")]),
    "simulate": (_cmd_simulate, "Monte-Carlo simulate a selection plan", codec.RESULT, [
        _file("--scenario", codec.SCENARIO, "scenario JSON (plan, behaviors, trials, seed)"),
        _opt("--trials-csv", help="also write per-trial metrics CSV here")]),
    "report": (_cmd_report, "compare model vs random simulation results", codec.REPORT, [
        _file("--model", codec.RESULT, "model-strategy SimulationResult JSON"),
        _file("--random", codec.RESULT, "random-strategy SimulationResult JSON")]),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone when it names
    one: a call parses one subcommand's arguments, so it need not pay for
    building the other six parsers."""
    parser = _Parser(
        prog="resselect",
        description="Model-driven resource selection for bag-of-tasks workloads.",
    )
    names = [command] if command in _SUBCOMMANDS else list(_SUBCOMMANDS)
    # One subcommand's usage and errors still list every name.  Only then:
    # with a metavar, a missing command would be reported by it, not by dest.
    metavar = "{" + ",".join(_SUBCOMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        handler, help_text, output, arguments = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, command=name)
        p.add_argument("--out", help="write output to this file instead of stdout")
        inputs = {}
        p.add_argument("--schema", action=_PrintSchema, nargs=0, const=(inputs, output),
                       help="print this subcommand's input/output formats and exit")
        for flag, fmt, kwargs in arguments:
            if fmt is not None:
                inputs[flag[2:]] = fmt
            p.add_argument(flag, **kwargs)
    return parser


# A planning error raised by a handler: the flag of the input it is about
# and, when the cause is an id that a second input names, that input's flag
# (None, or a flag the subcommand lacks: no " of <file>" tail)
_BLAME = {
    EmptyViableSetError: ("pool", "workload"),
    UnknownTaskError: ("profiles", "workload"),
    ProfileConsistencyError: ("profiles", None),
    InflationRangeError: ("config", None),
    ClockRangeError: ("clocks", None),
    WalltimeRangeError: ("config", "clocks"),
    TtcRangeError: ("history", "clocks"),
    MissingClockError: ("clocks", "pool"),
    NoQueueHistoryError: ("history", "pool"),
}


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, --schema or an argument error
        return exc.code
    try:
        args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except tuple(_BLAME) as exc:
        about, of = (vars(args).get(flag) for flag in _BLAME[type(exc)])
        print(f"error: {about}: {exc}{f' of {of}' if of else ''}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
