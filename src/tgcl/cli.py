"""Command-line interface.

Subcommands:

* ``tgcl run <config.json> [--preset NAME] [--out DIR] [--jobs K] [--resume]``
* ``tgcl gen <synth.json> --out DIR``  - emit graph files from a generator config
* ``tgcl select ...``                  - run subset selection only, dump buffer JSON
* ``tgcl report <DIR>``                - re-render the summary table from results
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness
from .backbone import Backbone, load_checkpoint, snapshot
from .graph import generate_synthetic, load_graph, save_graph, split_period
from .selector import SelectionConfig, select


def _cmd_run(args) -> int:
    try:
        cfg = harness.load_config(args.config, preset=args.preset)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or cfg.get("output_dir")
    if not out_dir:
        print("config error: output_dir: set it in the config or pass --out", file=sys.stderr)
        return 2
    echo = print if not args.quiet else None
    records = harness.execute(cfg, out_dir, jobs=args.jobs, resume=args.resume, echo=echo)
    print(harness.render_table(records))
    print(f"results written to {out_dir}")
    return 0


def _cmd_gen(args) -> int:
    try:
        cfg = harness.synth_config(json.loads(Path(args.synth_config).read_text()))
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    graph = generate_synthetic(cfg)
    paths = save_graph(graph, args.out)
    for kind, path in paths.items():
        print(f"{kind}: {path}")
    return 0


def _cmd_select(args) -> int:
    data_dir = Path(args.data)
    graph = load_graph(
        data_dir / "nodes.csv", data_dir / "events.csv", data_dir / "periods.json"
    )
    view = split_period(graph, args.period, split_seed=args.seed)
    if args.model:
        prev = snapshot(load_checkpoint(args.model))
    else:
        # untrained scoring model: useful for inspecting selection mechanics
        model = Backbone(graph.feature_dim, seed=args.seed)
        for i in range(1, args.period):
            model.grow_head(sorted(graph.period(i).classes))
        prev = snapshot(model)
    cfg = SelectionConfig(alpha=args.alpha, m=args.m, m_prime=args.m_prime, p=args.p)
    buffer = select(graph, view, prev, cfg, seed=args.seed)
    payload = json.dumps(buffer.to_json_dict(), indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n")
        print(f"buffer written to {args.out}")
    else:
        print(payload)
    return 0


def _cmd_report(args) -> int:
    records = harness.load_records(args.results_dir)
    print(harness.render_table(records))
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

    p_sel = sub.add_parser("select", help="run subset selection, dump buffer JSON")
    p_sel.add_argument("--data", required=True, help="directory with nodes/events/periods files")
    p_sel.add_argument("--period", type=int, required=True)
    p_sel.add_argument("--model", default=None, help="model checkpoint for scoring")
    p_sel.add_argument("--m", type=int, default=50)
    p_sel.add_argument("--m-prime", dest="m_prime", type=int, default=50)
    p_sel.add_argument("--alpha", type=float, default=1.0)
    p_sel.add_argument("--p", type=int, default=250)
    p_sel.add_argument("--seed", type=int, default=0)
    p_sel.add_argument("--out", default=None, help="write the buffer JSON here")
    p_sel.set_defaults(func=_cmd_select)

    p_rep = sub.add_parser("report", help="re-render summary tables from a results dir")
    p_rep.add_argument("results_dir")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
