"""Command-line interface.

One subcommand per pipeline phase plus the composite ``pipeline`` and the
``validate`` harness.  A phase subcommand runs the chain up to and
including that phase; stages whose cached outputs are still fresh are
skipped, so re-running a late phase does not redo earlier work.

Every config value can be overridden with a flag of the same dotted name,
e.g. ``--seed 11`` or ``--clustering.k=5``.

Exit codes: 0 success, 2 validation/config/data failure, 3 provider failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import CveMinerError, ProviderError
from .pipeline import STAGES, PipelineConfig, run_pipeline, run_validate


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _apply_dotted(doc: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = doc
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ValueError(f"cannot override {dotted!r}: {key!r} is not an object")
    node[keys[-1]] = value


def _consume_overrides(doc: dict, extras: list[str]) -> None:
    i = 0
    while i < len(extras):
        token = extras[i]
        if not token.startswith("--"):
            raise ValueError(f"unexpected argument {token!r}")
        body = token[2:]
        if "=" in body:
            dotted, raw = body.split("=", 1)
            i += 1
        else:
            dotted = body
            if i + 1 >= len(extras):
                raise ValueError(f"override {token!r} is missing a value")
            raw = extras[i + 1]
            i += 2
        _apply_dotted(doc, dotted, _parse_value(raw))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cveminer",
        description="Mine hardware-related CVEs: classify, embed, cluster, profile, report.",
        allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="pipeline config JSON")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--cache", default=None, help="override the response cache path")
        p.add_argument("--template", default=None, help="alternate classification prompt file")

    for name in STAGES:
        p = sub.add_parser(name, help=f"run the pipeline through the {name} stage")
        add_common(p)

    p = sub.add_parser("pipeline", help="run every stage")
    add_common(p)
    p.add_argument("--dry-run", action="store_true",
                   help="plan provider calls without contacting any provider")

    p = sub.add_parser("validate", help="score the classifier on labeled fixtures")
    add_common(p)
    p.add_argument("--fixture", action="append", required=True,
                   help="labeled id-list fixture (repeatable)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError(f"the config must be a JSON object, not {type(doc).__name__}")
        _consume_overrides(doc, extras)
        for flag, dotted in (("out", "output_dir"), ("cache", "cache_path"),
                             ("template", "classifier.template_path")):
            if getattr(args, flag) is not None:
                _apply_dotted(doc, dotted, getattr(args, flag))
        if getattr(args, "dry_run", False):
            doc["dry_run"] = True
        config = PipelineConfig.from_dict(doc)

        if args.command == "validate":
            report = run_validate(config, args.fixture)
            print(f"accuracy {report.accuracy} on {report.n} labeled records "
                  f"(tp={report.tp} tn={report.tn} fp={report.fp} fn={report.fn})")
            return 0

        until = None if args.command == "pipeline" else args.command
        manifest = run_pipeline(config, until=until)
        if "planned" in manifest:
            print(json.dumps(manifest["planned"], indent=2, sort_keys=True))
        for stage in manifest["stages"]:
            print(f"{stage['name']}: {stage['status']} {json.dumps(stage['counts'], sort_keys=True)}")
        return 0
    except ProviderError as exc:
        print(f"provider failure: {exc}", file=sys.stderr)
        return 3
    except (CveMinerError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
