"""Command-line entry point: gen-corpus, verify, metrics, eval-text."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
import traceback
from pathlib import Path

from .base import VALID_TYPOLOGIES, CatalogError, ConfigError, log_event
from .metrics import LabelError, MetricsError, compute_metrics, read_labels_csv


def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="YAML/JSON file with default option values")
    parser.add_argument("--out", type=Path, required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="claimcheck",
                                     description="Batch verification of claim bundles")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-corpus", help="generate a synthetic corpus with fixtures")
    _add_shared(gen)
    gen.add_argument("--n", type=int, required=True, help="number of applications")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--consistency", type=float, default=None,
                     help="share of comparable field pairs kept consistent "
                          "(default: the config file's, else 0.76)")
    gen.add_argument("--docs-per-app", type=int, default=11)
    gen.add_argument("--unsupported-rate", type=float, default=0.0,
                     help="share of documents written with a disallowed extension")
    gen.add_argument("--typology-mix", type=str, default=None,
                     help="weights like '1:27.3,3:48.1' (defaults to the deployment mix)")
    gen.add_argument("--catalog", type=Path, default=None)
    gen.set_defaults(func=cmd_gen_corpus)

    verify = sub.add_parser("verify", help="run the verification pipeline over a corpus")
    _add_shared(verify)
    verify.add_argument("--corpus", type=Path, required=True)
    verify.add_argument("--backend", choices=("mock", "remote"), default=None,
                        help="extraction backend (default: the config file's, else mock)")
    verify.add_argument("--endpoint", type=str, default=None,
                        help="remote extraction URL (default: the config file's)")
    verify.add_argument("--api-key-env", type=str, default="CLAIMCHECK_API_KEY")
    verify.add_argument("--parallelism", type=int, default=16,
                        help="extraction calls in flight; with the mock backend, "
                             "the most worker processes (one per usable CPU)")
    verify.add_argument("--catalog", type=Path, default=None)
    verify.add_argument("--fuzzy-threshold", type=float, default=0.85)
    verify.add_argument("--amount-tolerance-cents", type=int, default=0)
    verify.add_argument("--max-file-mb", type=float, default=25.0)
    verify.add_argument("--allow-ext", type=str, default=None,
                        help="extra extensions, e.g. 'webp=png,tif=jpg', each mapped to "
                             "pdf, zip, jpg or png; archive members included")
    verify.add_argument("--timeout", type=float, default=30.0)
    verify.add_argument("--retries", type=int, default=3,
                        help="attempts per document; every document is tried at least once")
    verify.set_defaults(func=cmd_verify)

    metrics = sub.add_parser("metrics", help="aggregate metrics from verify outputs")
    metrics.add_argument("--out", type=Path, required=True, help="verify output directory")
    metrics.add_argument("--labels", type=Path, default=None,
                         help="ground-truth CSV app_id,check_id,real_error[,category]")
    metrics.set_defaults(func=cmd_metrics)

    evaltext = sub.add_parser("eval-text", help="score candidate/reference text pairs")
    evaltext.add_argument("--pairs", type=Path, required=True,
                          help="JSONL with id, candidate, reference, optional *_vec")
    evaltext.add_argument("--out", type=Path, required=True, help="CSV output path")
    evaltext.set_defaults(func=cmd_eval_text)
    return parser


# The option values a --config file may set: verify reads backend and
# endpoint, gen-corpus consistency and typology_mix.
CONFIG_KEYS = ("backend", "endpoint", "consistency", "typology_mix")


def _load_config_file(path: Path | None) -> dict:
    if path is None:
        return {}
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    import yaml  # only a run given --config needs it

    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file must hold a mapping of option values: {path}")
    unknown = sorted(str(key) for key in data if key not in CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s) in {path}: {', '.join(unknown)}; "
                          f"accepted: {', '.join(CONFIG_KEYS)}")
    return data


def _flag_or_config(flag, defaults: dict, key: str, default):
    """An explicit flag wins over the config file, which wins over the default."""
    return flag if flag is not None else defaults.get(key, default)


def _parse_allow_ext(spec: str | None) -> dict[str, str]:
    if not spec:
        return {}
    mapping = {}
    for item in spec.split(","):
        ext, _, kind = item.strip().partition("=")
        if not ext:
            continue
        mapping["." + ext.lstrip(".").lower()] = (kind or "pdf").lower()
    return mapping


def _parse_typology_mix(spec: str | None) -> dict[int, float] | None:
    """The weights of ``major:weight,...``; a ConfigError unless each major
    is a typology's and each weight a number >= 0, and they sum above 0."""
    if not spec:
        return None
    majors = {int(tid.split(".")[0]) for tid in VALID_TYPOLOGIES}
    mix = {}
    for item in spec.split(","):
        major, _, weight = item.partition(":")
        try:
            number, share = int(major), float(weight)
        except ValueError:
            raise ConfigError(f"--typology-mix item {item!r} is not major:weight") from None
        if number not in majors or not 0.0 <= share < math.inf:
            raise ConfigError(f"--typology-mix item {item!r}: the major must be one of "
                              f"{', '.join(map(str, sorted(majors)))} and the weight "
                              f"a number >= 0")
        mix[number] = share
    if not sum(mix.values()) > 0:
        raise ConfigError(f"--typology-mix {spec!r} gives no typology a weight above 0")
    return mix


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    from .gencorpus import GenOptions, write_corpus  # only this command needs it

    defaults = _load_config_file(args.config)
    options = GenOptions(
        n_apps=args.n,
        consistency=_flag_or_config(args.consistency, defaults, "consistency", 0.76),
        seed=args.seed,
        docs_per_app=args.docs_per_app,
        unsupported_rate=args.unsupported_rate,
        typology_mix=_parse_typology_mix(args.typology_mix) or defaults.get("typology_mix"),
        catalog_path=args.catalog,
    )
    summary = write_corpus(args.out, options)
    log_event("corpus_generated", apps=summary.n_apps, checks=summary.total_checks,
              inconsistent=summary.inconsistent_checks,
              unsupported_files=summary.unsupported_files, out=str(args.out))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .pipeline import RunConfig, verify_corpus  # only this command needs it

    defaults = _load_config_file(args.config)
    config = RunConfig(
        corpus_root=args.corpus,
        out_dir=args.out,
        backend=_flag_or_config(args.backend, defaults, "backend", "mock"),
        endpoint=_flag_or_config(args.endpoint, defaults, "endpoint", None),
        api_key_env=args.api_key_env,
        catalog_path=args.catalog,
        parallelism=args.parallelism,
        fuzzy_threshold=args.fuzzy_threshold,
        amount_tolerance_cents=args.amount_tolerance_cents,
        max_file_mb=args.max_file_mb,
        allow_ext=_parse_allow_ext(args.allow_ext),
        timeout_s=args.timeout,
        retries=args.retries,
    )
    result = verify_corpus(config)
    return result.exit_code


def cmd_metrics(args: argparse.Namespace) -> int:
    labels = None
    if args.labels is not None:
        if not args.labels.is_file():
            print(f"labels file not found: {args.labels}", file=sys.stderr)
            return 1
        # spreadsheet tools put a byte order mark before the CSV they export
        labels = read_labels_csv(args.labels.read_text(encoding="utf-8-sig"))
    summary = compute_metrics(args.out, labels)
    suppression = summary["total"]["suppression_rate"]
    log_event("metrics_written", out=str(args.out), suppression=suppression)
    return 0


def cmd_eval_text(args: argparse.Namespace) -> int:
    from .textmetrics import score_pair, summarize, tokenize  # only this command needs it

    if not args.pairs.is_file():
        print(f"pairs file not found: {args.pairs}", file=sys.stderr)
        return 1
    scores = []
    token_pairs = []
    for line in args.pairs.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        scores.append(score_pair(
            str(record["id"]), record["candidate"], record["reference"],
            record.get("candidate_vec"), record.get("reference_vec"),
        ))
        token_pairs.append((tokenize(record["candidate"]), tokenize(record["reference"])))

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with args.out.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "rouge_l_precision", "rouge_l_recall", "rouge_l_f1",
                         "bleu", "meteor", "cosine"])

        def fmt(value) -> str:
            return "" if value is None else f"{value:.6f}"

        for score in scores:
            writer.writerow([score.pair_id, fmt(score.rouge_precision), fmt(score.rouge_recall),
                             fmt(score.rouge_f1), fmt(score.bleu), fmt(score.meteor),
                             fmt(score.cosine)])
        aggregates = summarize(scores, token_pairs)
        for how in ("mean", "pooled"):
            agg = aggregates.get(how, {})
            writer.writerow([how, "", "", fmt(agg.get("rouge_f1")), fmt(agg.get("bleu")),
                             fmt(agg.get("meteor")), fmt(agg.get("cosine"))])
    log_event("eval_text_written", pairs=len(scores), out=str(args.out))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one command. Exit codes: 0 done, 1 configuration or input error,
    2 some application failed (``verify``), 3 internal error."""
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CatalogError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (MetricsError, LabelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 (a defect, not a bad input)
        log_event("internal_error", command=args.command, error=repr(exc),
                  traceback=traceback.format_exc())
        return 3


if __name__ == "__main__":
    sys.exit(main())
