"""Command-line interface.

Subcommands:

* ``tgcl run <config.json> [--preset NAME] [--out DIR] [--jobs K] [--resume]``
* ``tgcl gen <synth.json> --out DIR``  - emit graph files from a generator config
* ``tgcl select <config.json> [--preset NAME] --run ID --period N --model CKPT [--out FILE]``
  - rebuild run ``ID``'s period-N buffer through ``trainer.plan_period``
* ``tgcl report <DIR>``                - re-render the summary table from results

``select`` loads the config as ``run`` does (``TGCL_SEED`` too), so a run's
``<out>/resolved_config.json`` will do; ``CKPT`` is the model frozen after
period N-1, written by ``backbone.save_checkpoint(snapshot(model), path)``,
whose ``feature_dim``, ``hidden_dim`` and classes must be the run's.

A config, data file or checkpoint that cannot be used, an ``--out`` path
below a file or in a missing directory, a ``gen --out`` directory where
``nodes.csv``, ``events.csv`` or ``periods.json`` is a directory (refused
before any file is written), a ``report`` directory without run records
or whose ``config_hash.txt`` cannot be read as UTF-8 text, and a
``--jobs``, ``--run`` or ``--period`` out of range each print one
``<kind> error: ...`` line naming it (kind ``config``, ``data``, ``run``,
``gen``, ``select`` or ``report``) and exit with status 2, before any run
starts. argparse reports a malformed command line itself (usage line,
status 2); other failures, such as a disk that fills up, end in a
traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness
from .backbone import load_checkpoint, snapshot
from .graph import GraphFormatError, first_empty_period, generate_synthetic, graph_paths, save_graph, split_period
from .metrics import format_summary_table
from .trainer import plan_period, selects


def _fail(kind: str, message) -> int:
    print(f"{kind} error: {message}", file=sys.stderr)
    return 2


def _not_a_directory(out: Path) -> Path | None:
    """The nearest of ``out`` and its parents that exists, if it is not a directory."""
    existing = next(p for p in (out, *out.parents) if p.exists())
    return None if existing.is_dir() else existing


def _cmd_run(args) -> int:
    if args.jobs < 1:
        return _fail("run", f"--jobs {args.jobs}: must be at least 1")
    cfg = harness.load_config(args.config, preset=args.preset)
    out_dir = args.out or cfg.get("output_dir")
    if not out_dir:
        return _fail("config", "output_dir: set it in the config or pass --out")
    blocked = _not_a_directory(Path(out_dir))
    if blocked:
        return _fail("run", f"{blocked}: not a directory")
    echo = print if not args.quiet else None
    try:
        records = harness.execute(cfg, out_dir, jobs=args.jobs, resume=args.resume, echo=echo)
    except IsADirectoryError as exc:
        return _fail("run", exc)
    print(format_summary_table(records))
    print(f"results written to {out_dir}")
    return 0


def _cmd_gen(args) -> int:
    synth = harness.synth_config(harness.read_config_file(args.synth_config))
    blocked = _not_a_directory(Path(args.out))
    if blocked:
        return _fail("gen", f"{blocked}: not a directory")
    taken = next((p for p in graph_paths(args.out).values() if p.is_dir()), None)
    if taken:
        return _fail("gen", f"{taken}: Is a directory")
    graph = generate_synthetic(synth)
    empty = first_empty_period(graph)
    if empty is not None:
        return _fail("config", f"{args.synth_config}: period {empty.index} holds no events")
    paths = save_graph(graph, args.out)
    for kind, path in paths.items():
        print(f"{kind}: {path}")
    return 0


def _cmd_select(args) -> int:
    if args.out and not Path(args.out).parent.is_dir():
        return _fail("select", f"{Path(args.out).parent}: no such directory")
    cfg = harness.load_config(args.config, preset=args.preset)
    specs = {s.run_id: s for s in harness.plan_runs(cfg)}
    spec = specs.get(args.run)
    if spec is None:
        return _fail("select", f"--run {args.run}: not planned by the config (planned: {', '.join(specs)})")
    graph = harness.load_data(cfg["data"])
    n = args.period
    if not 1 <= n <= graph.num_periods:
        return _fail("select", f"--period {n}: outside 1..{graph.num_periods}")
    view = split_period(graph, n, spec.seed)
    if not selects(spec.strategy, view):
        return _fail("select", f"run {spec.run_id} selects nothing at period {n}")
    try:
        prev = snapshot(load_checkpoint(args.model))
    except (OSError, ValueError) as exc:
        return _fail("select", f"{args.model}: cannot load the model checkpoint: {exc}")
    for name, run_value in (("feature_dim", graph.feature_dim), ("hidden_dim", spec.hidden_dim)):
        if getattr(prev, name) != run_value:
            return _fail("select", f"{args.model}: {name} {getattr(prev, name)} is not the run's {run_value}")
    want = [c for i in range(1, n) for c in sorted(graph.period(i).classes)]
    if list(prev.classes) != want:
        return _fail(
            "select", f"{args.model}: classes {list(prev.classes)} are not those of periods 1..{n - 1}: {want}"
        )
    _, buffer, _ = plan_period(
        graph, view, prev, spec.strategy, spec.sel, spec.train,
        seed=spec.seed, kernel_squared=spec.kernel_squared,
    )
    if args.out:
        try:
            buffer.save(args.out)
        except OSError as exc:
            return _fail("select", f"{args.out}: {exc.strerror}")
        print(f"buffer written to {args.out}")
    else:
        print(json.dumps(buffer.to_json_dict(), indent=2))
    return 0


def _cmd_report(args) -> int:
    try:
        records = harness.load_records(args.results_dir)
    except OSError as exc:
        return _fail("report", exc)
    print(format_summary_table(records))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tgcl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", nargs="?", default=None, help="JSON config path")
    p_run.add_argument("--preset", choices=sorted(harness.PRESETS), default=None)
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")
    p_run.add_argument("--jobs", type=int, default=1, help="concurrent runs")
    p_run.add_argument("--resume", action="store_true", help="skip completed runs")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen", help="generate synthetic graph files")
    p_gen.add_argument("synth_config", help="generator config JSON")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=_cmd_gen)

    p_sel = sub.add_parser(
        "select", help="rebuild a planned run's replay buffer at one period, as JSON"
    )
    p_sel.add_argument(
        "config", nargs="?", default=None,
        help="JSON config path, e.g. a run's resolved_config.json (TGCL_SEED applies, as for run)",
    )
    p_sel.add_argument("--preset", choices=sorted(harness.PRESETS), default=None)
    p_sel.add_argument("--run", required=True, help="run id, e.g. ltf__seed0")
    p_sel.add_argument("--period", type=int, required=True, help="period n of the buffer")
    p_sel.add_argument("--model", required=True, help="checkpoint of the model frozen after period n-1")
    p_sel.add_argument("--out", default=None, help="write the buffer JSON here")
    p_sel.set_defaults(func=_cmd_select)

    p_rep = sub.add_parser("report", help="re-render summary tables from a results dir")
    p_rep.add_argument("results_dir")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except harness.ConfigError as exc:
        return _fail("config", exc)
    except GraphFormatError as exc:
        return _fail("data", exc)


if __name__ == "__main__":
    sys.exit(main())
