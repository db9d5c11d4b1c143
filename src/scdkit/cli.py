"""Command-line entry point.

Five subcommands: stats, train, eval, viewgen-audit, diagnose. Exit code 0
on success, 1 on runtime errors (reported to stderr), 2 on usage errors.
train and viewgen-audit read a flat JSON config; repeated --override k=v
pairs and dedicated flags win over file values, in that order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .corpus import dataset_stats, load_responses, write_csv
from .evalkit import align_responses, case_study, evaluate_checkpoint
from .relgraph import build_relation_graph, directed_split
from .scdmodel import load_checkpoint
from .trainkit import RunRefused, TrainConfig, fit, load_dataset
from .viewgen import retention_table

# config keys that name inputs rather than hyperparameters
_PATH_KEYS = ("responses", "qmatrix", "output_dir")


class UsageError(Exception):
    pass


def _coerce(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _override(pair: str) -> tuple[str, object]:
    key, sep, value = pair.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"override must look like key=value, got {pair!r}")
    return key, _coerce(value)


def _load_config(args) -> tuple[dict, dict]:
    """Merge config file, --override pairs, and dedicated flags; returns
    (hyperparameter dict, path dict)."""
    raw: dict = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8-sig"))
        except json.JSONDecodeError as err:
            raise UsageError(
                f"{args.config}: line {err.lineno} column {err.colno}: {err.msg}"
            ) from None
        except UnicodeDecodeError as err:
            raise UsageError(f"{args.config}: not UTF-8 text at byte {err.start}") from None
        if not isinstance(raw, dict):
            raise UsageError(f"{args.config}: a config file must hold a JSON object")
    for key, value in args.override or []:
        raw[key] = value
    paths = {k: raw.pop(k, None) for k in _PATH_KEYS}
    for k, value in paths.items():
        if value is not None and not isinstance(value, str):  # open(2) would wrap stderr
            raise UsageError(f"{k} must be a path (a JSON string), got {json.dumps(value)}")
        flag = getattr(args, k, None)  # viewgen-audit has no --output-dir
        if flag is not None:
            paths[k] = flag
    return raw, paths


def _require(paths: dict, *keys: str) -> None:
    missing = [k for k in keys if not paths.get(k)]
    if missing:
        raise UsageError(f"missing required input(s): {', '.join(missing)} (flag or config)")


def _train_config(raw: dict) -> TrainConfig:
    try:
        return TrainConfig.from_dict(raw)
    except (TypeError, ValueError) as err:  # bad key or value is the caller's fault
        raise UsageError(str(err)) from None


def cmd_stats(args) -> int:
    if args.min_interactions < 0:
        raise UsageError("--min-interactions must be >= 0")
    rs, q = load_dataset(args.responses, args.qmatrix, args.min_interactions)
    print(dataset_stats(rs, q).to_json())
    return 0


def cmd_train(args) -> int:
    raw, paths = _load_config(args)
    if args.seed is not None:  # viewgen-audit's --seed seeds its draws, not the run
        raw["master_seed"] = args.seed
    _require(paths, "responses", "qmatrix", "output_dir")
    config = _train_config(raw)
    result = fit(
        config,
        paths["responses"],
        paths["qmatrix"],
        paths["output_dir"],
        resume_from=args.resume,
    )
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"log: {result.log_path}")
    if result.log_rows:
        print(f"final: {result.log_rows[-1]}")
    return 0


def cmd_eval(args) -> int:
    report = evaluate_checkpoint(args.checkpoint, args.test)
    print(report.to_json())
    if args.output_dir:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in (
            ("report.json", report.to_json()),
            ("per_student.csv", report.per_student_csv()),
            ("per_group.csv", report.per_group_csv()),
        ):
            (out / name).write_text(text + "\n", encoding="utf-8")
    return 0


def cmd_viewgen_audit(args) -> int:
    if args.draws < 0:
        raise UsageError("--draws must be >= 0")
    raw, paths = _load_config(args)
    _require(paths, "responses", "qmatrix")
    config = _train_config(raw)
    rs, q = load_dataset(paths["responses"], paths["qmatrix"], config.min_interactions)
    split = directed_split(build_relation_graph(rs, q))
    rng = np.random.default_rng(args.seed)
    rows = retention_table(split, config, args.draws, rng)
    header = ("degree", "importance", "retention_p", "empirical")
    write_csv(sys.stdout, [header, *map(dict.values, rows)])
    return 0


def _id_list(raw: str, flag: str) -> list[str]:
    """Ids from one CSV row, each stripped as the loaders strip them; empty
    items are dropped. Python decodes argv with the locale's encoding, so the
    row is decoded again from its bytes as UTF-8, the text the loaders read."""
    try:
        raw = os.fsencode(raw).decode("utf-8")
    except UnicodeError:
        raise UsageError(f"{flag} must be UTF-8 text") from None
    return [key for key in map(str.strip, next(csv.reader([raw]))) if key]


def cmd_diagnose(args) -> int:
    students = _id_list(args.students, "--students")
    exercises = _id_list(args.exercises, "--exercises")
    ckpt = load_checkpoint(args.checkpoint, optimizer=False)
    test_set = None
    if args.test:
        test_set = align_responses(
            load_responses(args.test), ckpt.student_keys, ckpt.exercise_keys
        )
    study = case_study(ckpt, students, exercises, test_set)
    if isinstance(sys.stdout, io.TextIOWrapper):  # the tables name ids: UTF-8, as in the files
        sys.stdout.reconfigure(encoding="utf-8")
    print(study.concept_csv())
    if study.scores:
        print()
        print(study.outcome_csv())
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scdkit", description="Graph-based cognitive diagnosis toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="print dataset statistics as JSON")
    p.add_argument("--responses", required=True)
    p.add_argument("--qmatrix", required=True)
    p.add_argument("--min-interactions", type=int, default=0, dest="min_interactions")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="run the training pipeline")
    p.add_argument("--config", help="flat JSON config mirroring TrainConfig")
    p.add_argument("--override", type=_override, action="append", metavar="KEY=VALUE")
    p.add_argument("--responses")
    p.add_argument("--qmatrix")
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--seed", type=int, help="overrides master_seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint against a test CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--output-dir", dest="output_dir")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("viewgen-audit", help="print the per-degree retention table")
    p.add_argument("--config")
    p.add_argument("--override", type=_override, action="append", metavar="KEY=VALUE")
    p.add_argument("--responses")
    p.add_argument("--qmatrix")
    p.add_argument("--draws", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_viewgen_audit)

    p = sub.add_parser("diagnose", help="dump mastery/difficulty slices as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--students", required=True, help="raw student ids, as one CSV row")
    p.add_argument("--exercises", required=True, help="raw exercise ids, as one CSV row")
    p.add_argument("--test", help="test CSV supplying ground-truth scores")
    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (UsageError, RunRefused) as err:  # a run refused before it starts is a usage error
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - boundary of the process
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
