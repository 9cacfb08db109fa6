"""Command-line interface: the pipeline as subcommands with deterministic,
machine-readable output.

Exit codes: 0 success, 1 validation error, 2 I/O error.  Results go to
stdout (or --out); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import List, Optional

from . import codec, model
from .config import Config
from .match import viable_set
from .plan import plan_model, plan_random
from .predict import load_clocks, load_profiles, predict_sequential_cycles, predict_tx, profiles_by_task
from .queuewait import QueueWaitStore, _parse_iso8601
from .sim import compare, simulate


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = 1):
        super().__init__(message)
        self.exit_code = exit_code


def _read_text(path: str) -> str:
    """The text of ``path``; a UTF-8 byte-order mark, as spreadsheets write
    one, is dropped."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", exit_code=2) from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_json(path: str):
    try:
        return json.loads(_read_text(path))
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
        exc.source = exc.source or path
        raise


def _load_config(path: Optional[str]) -> Config:
    return _load(path, codec.CONFIG.decode) if path else Config()


def _check_resource_ids(config: Config, config_path: Optional[str], ids, source: str) -> None:
    """Every key of the config's per-resource maps names a resource in
    ``ids``, read from ``source``: a misspelt id would silently get the
    default inflation or queue."""
    for name in ("inflation_factors", "resource_queues"):
        for rid in sorted(getattr(config, name)):
            if rid not in ids:
                raise CliError(f"{config_path}: {name}.{rid}: no resource {rid!r} in {source}")


def _load_csv(path: str, load):
    """``load`` the CSV at ``path``; its skipped rows are warnings on stderr,
    and an error in the file as a whole names it.  Lines end where a file
    stream opened with ``newline=""`` ends them, so warnings name the lines
    that reading the file directly names: a lone ``\\r`` in a quoted cell
    ends a line.  One outside a quoted cell, which such a stream would read
    as the end of a row, is rejected as text that is not CSV."""
    text = _read_text(path)
    try:
        if text.count("\r") != text.count("\r\n"):  # rare: check where each lone \r stands
            reader = csv.reader(io.StringIO(text))  # lines end at \n only
            try:
                for _ in reader:
                    pass
            except csv.Error as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from exc
        result, warnings = load(io.StringIO(text, newline=""))
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
    _check_resource_ids(config, args.config, clocks, args.clocks)
    by_task = profiles_by_task(profiles)
    task_ids = [args.task_id] if args.task_id else sorted(by_task)
    reports = []
    for task_id in task_ids:
        if task_id not in by_task:
            raise CliError(f"no baseline profiles for task {task_id!r}")
        cycles = predict_sequential_cycles(by_task[task_id])
        for rid in sorted(clocks):
            report = predict_tx(
                cycles.mean,
                clocks[rid],
                inflation=config.inflation_factors.get(rid, 1.0),
                task_id=task_id,
            )
            reports.append(codec.PREDICTION.encode((report, cycles)))
    _emit(model.canonical_dumps(reports), args.out)


def _cmd_queue_wait(args) -> None:
    store = QueueWaitStore()
    _load_csv(args.history, store.ingest_csv)
    config = _load_config(args.config)
    estimate = store.estimate_tq(
        machine=args.machine,
        queue=args.queue,
        walltime_req_s=args.walltime,
        cores_req=args.cores,
        now=args.now,
        window_s=config.window_s,
        buckets=config.buckets,
    )
    _emit(model.canonical_dumps(codec.QUEUE_ESTIMATE.encode(estimate)), args.out)


def _cmd_select(args) -> None:
    needed = ("seed",) if args.strategy == "random" else ("profiles", "clocks", "history", "now")
    missing = [f"--{name}" for name in needed if getattr(args, name) is None]
    if missing:
        raise CliError(f"the {args.strategy} strategy requires {', '.join(missing)}")
    workload = _load(args.workload, codec.WORKLOAD.decode)
    pool = _load(args.pool, codec.POOL.decode)
    config = _load_config(args.config)
    _check_resource_ids(config, args.config, {r.resource_id for r in pool}, args.pool)
    if args.strategy == "random":
        plan = plan_random(workload, pool, args.seed, config.cores_per_task)
    else:
        profiles = _load_csv(args.profiles, load_profiles)
        clocks = _load(args.clocks, load_clocks)
        store = QueueWaitStore()
        _load_csv(args.history, store.ingest_csv)
        plan = plan_model(workload, pool, profiles, clocks, store, config, now=args.now)
    _emit(model.canonical_dumps(plan.to_json()), args.out)


def _cmd_simulate(args) -> None:
    scenario = _load(args.scenario, codec.SCENARIO.decode)
    plan = scenario["plan"]
    if isinstance(plan, str):
        plan = _load(plan, codec.PLAN.decode)
    behaviors = {b.resource_id: b for b in scenario["behaviors"]}
    result = simulate(plan, behaviors, trials=scenario["trials"], seed=scenario["seed"])
    _emit(model.canonical_dumps(result.to_json()), args.out)
    if args.trials_csv:
        buf = io.StringIO()
        result.write_trials_csv(buf)
        _emit(buf.getvalue(), args.trials_csv)


def _cmd_report(args) -> None:
    model_result = _load(args.model, codec.RESULT.decode)
    random_result = _load(args.random, codec.RESULT.decode)
    rep = compare(model_result, random_result)
    lines = [",".join(codec.REPORT.columns)]
    for metric, entry in sorted(rep["metrics"].items()):
        lines.append(
            f"model,{metric},{entry['model_mean']!r},{entry['model_sample_stddev']!r}"
        )
        lines.append(
            f"random,{metric},{entry['random_mean']!r},{entry['random_sample_stddev']!r}"
        )
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="resselect",
        description="Model-driven resource selection for bag-of-tasks workloads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, output):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, command=name)
        p.add_argument("--out", help="write output to this file instead of stdout")
        inputs = {}
        p.add_argument("--schema", action=_PrintSchema, nargs=0, const=(inputs, output),
                       help="print this subcommand's input/output formats and exit")

        def file_arg(flag, kind, help_text, required=True):
            inputs[flag[2:]] = kind
            p.add_argument(flag, required=required, help=help_text)

        return p, file_arg

    p, file_arg = add("aggregate", _cmd_aggregate, "collapse a task's instructions into totals",
                      codec.TASK)
    file_arg("--task", codec.TASK, "task JSON file")

    p, file_arg = add("match", _cmd_match, "compute a task's viable resources", codec.VIABLE_SET)
    file_arg("--task", codec.TASK, "task JSON file")
    file_arg("--pool", codec.POOL, "resource pool JSON file")

    p, file_arg = add("predict", _cmd_predict, "predict execution times from profiles",
                      codec.Arr(codec.PREDICTION))
    file_arg("--profiles", codec.PROFILES, "baseline profile CSV")
    file_arg("--clocks", codec.CLOCKS, "clock specification JSON")
    p.add_argument("--task-id", help="restrict to one task id")
    file_arg("--config", codec.CONFIG, "config JSON", required=False)

    p, file_arg = add("queue-wait", _cmd_queue_wait, "estimate queue wait from history",
                      codec.QUEUE_ESTIMATE)
    file_arg("--history", codec.HISTORY, "queue-wait history CSV")
    p.add_argument("--machine", required=True)
    p.add_argument("--queue", required=True)
    p.add_argument("--walltime", type=_positive(codec.number, "a finite number"),
                   required=True, help="requested walltime in seconds")
    p.add_argument("--cores", type=_positive(int, "an integer"), required=True,
                   help="requested core count")
    p.add_argument("--now", type=_time, required=True, help="query time, ISO-8601 UTC")
    file_arg("--config", codec.CONFIG, "config JSON", required=False)

    p, file_arg = add("select", _cmd_select, "plan a workload over a pool", codec.PLAN)
    file_arg("--workload", codec.WORKLOAD, "workload JSON file")
    file_arg("--pool", codec.POOL, "resource pool JSON file")
    file_arg("--profiles", codec.PROFILES, "baseline profile CSV (model strategy)",
             required=False)
    file_arg("--clocks", codec.CLOCKS, "clock specification JSON (model strategy)",
             required=False)
    file_arg("--history", codec.HISTORY, "queue-wait history CSV (model strategy)",
             required=False)
    file_arg("--config", codec.CONFIG, "config JSON", required=False)
    p.add_argument("--now", type=_time, help="planning time, ISO-8601 UTC (model strategy)")
    p.add_argument("--strategy", choices=["model", "random"], default="model")
    p.add_argument("--seed", type=int, help="PRNG seed (random strategy)")

    p, file_arg = add("simulate", _cmd_simulate, "Monte-Carlo simulate a selection plan",
                      codec.RESULT)
    file_arg("--scenario", codec.SCENARIO, "scenario JSON (plan, behaviors, trials, seed)")
    p.add_argument("--trials-csv", help="also write per-trial metrics CSV here")

    p, file_arg = add("report", _cmd_report, "compare model vs random simulation results",
                      codec.REPORT)
    file_arg("--model", codec.RESULT, "model-strategy SimulationResult JSON")
    file_arg("--random", codec.RESULT, "random-strategy SimulationResult JSON")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, --schema or an argument error
        return exc.code
    try:
        args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
