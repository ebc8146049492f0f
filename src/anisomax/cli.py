"""Command-line experiment runner.

Exit codes: 0 all checks pass, 1 a hard assertion failed, 2 the config is
invalid (including a dilation an experiment cannot use, such as one whose
norm_power is not 1 for the stopping construction), 3 a compute budget was
exceeded, 4 a numerical routine failed (NumericalFailureError,
WindowExhaustedError, or any other package error).  The output directory
resolves as --out, then the ANISOMAX_OUT environment variable, then the
config.
"""

import os
import sys

import click

from .config import load_config
from .errors import (
    AnisoError,
    BudgetExceededError,
    ConfigInvalidError,
    DegenerateFitError,
    InputInvalidError,
    NotNormalizedError,
    ResolutionTooCoarseError,
)
from .experiments import EXPERIMENT_NAMES, run_experiment

OUT_ENV = "ANISOMAX_OUT"


@click.group()
def main():
    """Anisotropic maximal-operator experiments."""


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="YAML config file; defaults apply when omitted.")
@click.option("--experiment", required=True,
              type=click.Choice(EXPERIMENT_NAMES),
              help="Which named experiment to run.")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Output directory (overrides config and environment).")
@click.option("--override", "overrides", multiple=True, metavar="KEY=VALUE",
              help="Dotted config override, repeatable.")
def run(config_path, experiment, out_dir, overrides):
    """Run one experiment and write manifest, CSVs, and summary."""
    if out_dir is None:
        out_dir = os.environ.get(OUT_ENV) or None
    try:
        config = load_config(config_path, overrides=overrides, out_dir=out_dir)
        status = run_experiment(config, experiment)
    except (ConfigInvalidError, InputInvalidError, ResolutionTooCoarseError,
            DegenerateFitError, NotNormalizedError) as exc:
        # parameters the config chose were rejected by their owning module
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except BudgetExceededError as exc:
        click.echo(f"budget exceeded: {exc}", err=True)
        sys.exit(3)
    except AnisoError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(4)
    summary = os.path.join(config.out_dir, "summary.txt")
    with open(summary) as fh:
        click.echo(fh.read(), nl=False)
    sys.exit(status)


if __name__ == "__main__":
    main()
