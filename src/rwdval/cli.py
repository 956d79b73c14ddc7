"""Command-line interface for the validation engine.

Subcommands mirror the pillars: ingest and refstd prepare inputs, metrics
/ checks / replicate run one pillar each, run executes the pillars the
config enables (all by default), report re-prints a previous run, and
simulate builds a synthetic workspace to try the whole flow on. Exit codes
are uniform: 0 clean, 1 validation issues (including an unassembled
reference standard), 2 run failure or internal error, which the group
maps from any subcommand's exception in one place.
"""
from __future__ import annotations

import csv
import sys
import traceback
from dataclasses import fields, replace
from itertools import islice
from pathlib import Path

import click
import yaml

from .labelio import LABEL_COLUMNS, IngestError, load_schema, read_labels, save_schema, write_attributes, write_labels
from .pipeline import (
    ConfigError,
    Pillars,
    assemble_reference,
    canonical_json,
    disagreement_cases,
    emit_report,
    load_run_config,
    run_pipeline,
    _load_dataset,
    _load_schema,
    _summary_lines,
)
from .refstd import AdjudicationError, ReferenceMode, adjudicate_from_oracle, write_disagreements
from .schema import SchemaError, Source
from .synth import REGIMENS, ErrorModel, ErrorRates, GeneratorConfig, corrupt, generate_truth, refresh_snapshot

_RUN_ERRORS = (ConfigError, IngestError, SchemaError, OSError, ValueError, yaml.YAMLError)


class _Main(click.Group):
    """The one error boundary: any subcommand's run error exits 2 with a
    message, and an internal error exits 2 with its traceback on stderr."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (click.exceptions.Exit, click.Abort, click.ClickException):
            raise  # click's own exits; ctx.exit raises Exit, a RuntimeError
        except _RUN_ERRORS as exc:
            _fail(str(exc))
        except Exception:
            traceback.print_exc()
            sys.exit(2)


@click.group(cls=_Main)
@click.option("--config", "config_path", type=click.Path(), default=None, help="Run configuration YAML.")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Override the configured random seed.")
@click.option("--out", "out_dir", type=click.Path(), default=None, help="Output directory override.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", help="Stdout format.")
@click.pass_context
def main(ctx: click.Context, config_path, seed, out_dir, fmt):
    """Validate extracted longitudinal datasets against human abstraction."""
    ctx.obj = {
        "config_path": config_path,
        "seed": seed,
        "out_dir": out_dir,
        "format": fmt,
    }


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _load_config(ctx: click.Context):
    path = ctx.obj.get("config_path")
    if not path:
        _fail("this command needs --config (give it before the subcommand)")
    config = load_run_config(path)
    if ctx.obj.get("seed") is not None:
        config = replace(config, tolerances=replace(config.tolerances, seed=ctx.obj["seed"]))
    if ctx.obj.get("out_dir"):
        config = replace(config, output_dir=Path(ctx.obj["out_dir"]))
    return config


def _run_and_report(ctx: click.Context, only: str | None = None):
    """Run the configured pillars, or just the pillar ``only``."""
    config = _load_config(ctx)
    if only is not None:
        config = replace(config, pillars=Pillars(**{f.name: f.name == only for f in fields(Pillars)}))
    result = run_pipeline(config)
    if config.output_dir is not None:
        emit_report(result, config.output_dir)
    if ctx.obj["format"] == "json":
        click.echo(canonical_json(result.report), nl=False)
    else:
        click.echo("\n".join(_summary_lines(result.report)))
    ctx.exit(result.exit_code)


@main.command()
@click.argument("label_file", type=click.Path(exists=True))
@click.option("--schema", "schema_path", type=click.Path(exists=True), required=True)
@click.option("--source", "source_name", type=click.Choice([s.value for s in Source]), required=True)
@click.option("--refresh-id", default=None,
              help="Require this refresh id on every row; an empty refresh_id cell takes it.")
@click.pass_context
def ingest(ctx, label_file, schema_path, source_name, refresh_id):
    """Validate one label file against a schema and report its shape."""
    schema = load_schema(schema_path)
    labels = read_labels(label_file, schema, Source(source_name), expected_refresh_id=refresh_id)
    click.echo(
        f"ok: {len(labels)} records, {len(labels.patients)} patients, "
        f"{len(labels.variables)} variables"
        + (f", refresh {labels.refresh_id}" if labels.refresh_id else "")
    )


def _named_source(path) -> Source:
    """The source a label file's first data row names; an empty source cell,
    or one naming no source, reads as ``reference``. Ingest then holds every
    row to that source."""
    try:
        with open(path, newline="") as fh:
            rows = islice(csv.reader(fh), 1, None)
            first = next((row for row in rows if "".join(row).strip()), [])
    except (csv.Error, UnicodeDecodeError):
        first = []  # ingest reports the file's fault
    cell = dict(zip(LABEL_COLUMNS, first)).get("source", "").strip()
    return Source(cell) if cell in {s.value for s in Source} else Source.REFERENCE


@main.command()
@click.option("--mode", type=click.Choice([m.value for m in ReferenceMode]), default=None,
              help="Override the configured reference mode.")
@click.option("--emit-worklist", "worklist_path", type=click.Path(), default=None,
              help="Write unresolved disagreements here when assembly is blocked.")
@click.option("--adjudications", "adjudications_path", type=click.Path(exists=True), default=None,
              help="Adjudicator label file (overrides the config; not with --oracle).")
@click.option("--oracle", "oracle_path", type=click.Path(exists=True), default=None,
              help="Resolve open disagreements by copying these labels (simulation aid). "
                   "Rows carry the source the first row names; an empty cell reads as 'reference'.")
@click.pass_context
def refstd(ctx, mode, worklist_path, adjudications_path, oracle_path):
    """Assemble the reference standard; emit a worklist when blocked."""
    if adjudications_path and oracle_path:
        _fail("--adjudications and --oracle cannot be given together: the oracle makes the adjudications")
    try:
        config = _load_config(ctx)
        if mode:
            config = replace(config, reference_mode=ReferenceMode(mode))
        dataset = _load_dataset(config, _load_schema(config))
        adjudications = cases = None
        if adjudications_path:
            adjudications = read_labels(adjudications_path, dataset.schema, Source.ADJUDICATOR)
        if oracle_path:
            oracle = read_labels(oracle_path, dataset.schema, _named_source(oracle_path))
            cases = disagreement_cases(config, dataset)
            adjudications = adjudicate_from_oracle(cases, oracle)
        ref = assemble_reference(config, dataset, adjudications, cases=cases)
    except AdjudicationError as exc:
        if worklist_path:
            write_disagreements(exc.worklist, worklist_path)
            click.echo(f"worklist written: {worklist_path} ({len(exc.worklist)} cases)")
        click.echo(f"reference standard blocked: {exc}", err=True)
        ctx.exit(1)
    out_dir = ctx.obj.get("out_dir") or config.output_dir
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_labels(ref.labels, out / "reference_labels.csv")
        if ref.cases:
            write_disagreements(ref.cases, out / "disagreements.csv")
        click.echo(f"reference labels written to {out / 'reference_labels.csv'}")
    summary = ref.summary()
    if ctx.obj["format"] == "json":
        click.echo(canonical_json(summary), nl=False)
    else:
        for key, value in sorted(summary.items()):
            click.echo(f"{key}: {value}")


@main.command()
@click.pass_context
def metrics(ctx):
    """Variable-level metrics against the reference standard."""
    _run_and_report(ctx, "metrics")


@main.command()
@click.pass_context
def checks(ctx):
    """Run the verification check suite."""
    _run_and_report(ctx, "checks")


@main.command()
@click.pass_context
def replicate(ctx):
    """Replicate configured analyses and score benchmark concordance."""
    _run_and_report(ctx, "replication")


@main.command()
@click.pass_context
def run(ctx):
    """Run the pillars the config enables (all by default) and write the report bundle."""
    _run_and_report(ctx)


@main.command()
@click.pass_context
def report(ctx):
    """Print the report from a previous run's output directory."""
    import json

    out_dir = ctx.obj.get("out_dir")
    if not out_dir:
        out_dir = _load_config(ctx).output_dir
    if not out_dir:
        _fail("give --out (or a config with output_dir) pointing at a finished run")
    path = Path(out_dir) / "report.json"
    if not path.exists():
        _fail(f"no report found at {path}")
    doc = json.loads(path.read_text())
    if ctx.obj["format"] == "json":
        click.echo(canonical_json(doc), nl=False)
    else:
        click.echo("\n".join(_summary_lines(doc)))
    ctx.exit(doc.get("exit_code", 0))


# the simulated extraction's error rates; abstractor 1 errs at a third of each
_LLM_ERRORS = ErrorRates(miss=0.03, hallucinate=0.01, flip=0.02, date_shift_rate=0.05, date_shift_days=45)
_A1_ERRORS = ErrorRates(
    miss=0.03 / 3, hallucinate=0.01 / 3, flip=0.02 / 3, date_shift_rate=0.05 / 3, date_shift_days=45
)


@main.command()
@click.option("--n", "n_patients", type=int, default=500, show_default=True)
@click.option("--with-refresh", is_flag=True, default=False,
              help="Also write a prior extraction snapshot for refresh checks.")
@click.pass_context
def simulate(ctx, n_patients, with_refresh):
    """Write a synthetic validation workspace ready for `rwdval run`."""
    out_dir = ctx.obj.get("out_dir")
    if not out_dir:
        _fail("simulate needs --out DIR (give it before the subcommand)")
    seed = ctx.obj.get("seed") or 0
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = generate_truth(GeneratorConfig(n_patients=n_patients), seed=seed)
    llm = corrupt(dataset, ErrorModel(default=_LLM_ERRORS), source=Source.LLM, seed=seed + 1)
    a1 = corrupt(dataset, ErrorModel(default=_A1_ERRORS), source=Source.ABSTRACTOR_1, seed=seed + 2)
    a2 = dataset.labels(Source.REFERENCE).relabel(Source.ABSTRACTOR_2)
    save_schema(dataset.schema, out / "schema.yaml")
    write_attributes(dataset.patients, out / "attributes.csv")
    write_labels(a1, out / "labels_abstractor_1.csv")
    write_labels(a2, out / "labels_abstractor_2.csv")
    previous_line = ""
    if with_refresh:
        refresh_model = ErrorModel(
            default=ErrorRates(instability=0.01, date_shift_days=30)
        )
        first = llm.relabel(Source.LLM, refresh_id="1")
        second = refresh_snapshot(
            first, refresh_model, seed=seed + 3, refresh_id="2"
        )
        write_labels(first, out / "labels_llm_refresh1.csv")
        write_labels(second, out / "labels_llm.csv")
        previous_line = "previous_labels: labels_llm_refresh1.csv\n"
    else:
        write_labels(llm, out / "labels_llm.csv")
    regimen_lines = "\n".join(f"    {name}: {p}" for name, p in sorted(REGIMENS.items()))
    run_yaml = f"""schema: schema.yaml
labels:
  llm: labels_llm.csv
  abstractor_1: labels_abstractor_1.csv
  abstractor_2: labels_abstractor_2.csv
{previous_line}attributes: attributes.csv
strata: [race_ethnicity, treatment_arm]
reference_mode: duplicate_abstraction
metrics:
  variables:
    - {{variable: surgery, positive_class: "yes"}}
    - {{variable: metastatic_dx, positive_class: "yes"}}
    - {{variable: hr_status, positive_class: positive}}
  derived:
    - name: tnbc
      index_variable: initial_dx
      components:
        - {{variable: er_result, required: negative}}
        - {{variable: pr_result, required: negative}}
        - {{variable: her2_result, required: negative}}
      window_days: [-60, 60]
analyses:
  - kind: survival_benchmark
    name: os_by_arm
    index_variable: metastatic_dx
    event_variable: death
    censor_variable: last_contact
    group_by: treatment_arm
    at_times: [180, 365, 730]
    benchmark: {{name: arm_a_longer_os, type: direction, higher: A, lower: B}}
  - kind: distribution_vs_reference
    name: regimen_mix
    variable: first_line_regimen
    reference:
{regimen_lines.replace("    ", "      ")}
  - kind: trend
    variable: metastatic_dx
  - kind: equity
    name: os_equity
    index_variable: metastatic_dx
    event_variable: death
    censor_variable: last_contact
    stratum_attribute: race_ethnicity
tolerances:
  date_tolerance_days: 30
  min_stratum_n: 20
  seed: {seed}
output_dir: results
"""
    (out / "run.yaml").write_text(run_yaml)
    click.echo(f"synthetic workspace written to {out}")
    click.echo(f"next: rwdval --config {out / 'run.yaml'} run")


if __name__ == "__main__":
    main()
