"""Command-line driver.

Commands
--------
study-uniform    dyadic refinement study, emits table1.csv / table1.md
study-adaptive   adaptive refinement study, emits table2.csv / table2.md
solve            one solve plus interior evaluations on a point list

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import mesh as mesh_mod
from .galerkin import assemble_all, assemble_rhs, write_matrix_text
from .kernels import QuadratureError
from .krylov import NumericalError
from .studies import (
    ConfigError,
    ExperimentConfig,
    KAPPA_CONVENTIONS,
    PRECOND_CHOICES,
    build_problem,
    meta_text,
    records_to_csv,
    records_to_markdown,
    run_adaptive_study,
    run_single_solve,
    run_uniform_study,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _precond_set(text: str) -> tuple[str, ...]:
    """--precond / precond= value: one preconditioner, or all of them."""
    if text not in (*PRECOND_CHOICES, "all"):
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r}")
    return PRECOND_CHOICES if text == "all" else (text,)


_DEFAULTS = {"level": 4}  # keys whose default is not their field's: solve at N = 32
# flag dest and config-file key -> ExperimentConfig field, value type, further
# argparse keywords.  Flags default to None, so that an unset flag falls
# through to the config file, then to _DEFAULTS, then to the field default.
_OPTIONS = {
    "example": ("example", int, dict(
        choices=(1, 2), help="built-in problem: 1 smooth datum, 2 boundary layer")),
    "alpha": ("alpha", float, dict(help="heat capacity")),
    "levels": ("max_level", int, dict(help="refinement levels 0..11")),
    "level": ("max_level", int, dict(
        help=f"uniform mesh level 0..11 (default {_DEFAULTS['level']})")),
    "tol": ("tol", float, dict(help="GMRES relative tolerance")),
    "precond": ("preconds", _precond_set, dict(
        metavar="{none,diag,calderon,all}", help="preconditioner set for iteration counts")),
    "theta": ("theta", float, dict(help="marking parameter in (0, 1]")),
    "kappa": ("kappa_convention", str, dict(
        choices=KAPPA_CONVENTIONS, help="condition-number convention for the tables")),
    "max_kappa_n": ("max_kappa_n", int, dict(help="skip condition numbers above this N")),
    "target_n": ("target_n", int, dict(help="stop after the first step whose N exceeds this")),
    "max_steps": ("max_steps", int, dict(help="cap on the adaptive steps")),
}
# The keys each command's driver reads, as flags and as config-file keys.
_COMMAND_KEYS = {
    "study-uniform": ("example", "alpha", "levels", "tol", "precond", "kappa", "max_kappa_n"),
    "study-adaptive": ("example", "alpha", "tol", "precond", "theta", "kappa", "max_kappa_n",
                       "target_n", "max_steps"),
    "solve": ("example", "alpha", "level", "tol"),
}
# The ExperimentConfig fields each command's driver reads: its meta.txt echoes these.
_READ_FIELDS = {cmd: {_OPTIONS[key][0] for key in keys} for cmd, keys in _COMMAND_KEYS.items()}


def _command_flags(p: argparse.ArgumentParser, command: str) -> None:
    for key in _COMMAND_KEYS[command]:
        _, kind, keywords = _OPTIONS[key]
        p.add_argument("--" + key.replace("_", "-"), type=kind, default=None, **keywords)
    p.add_argument("--out", type=Path, default=Path("results"),
                   help="output directory (default %(default)s)")
    p.add_argument("--dump-matrices", action="store_true",
                   help="write V/D/rhs plain-text dumps per level")
    p.add_argument("--config", type=Path, default=None,
                   help="key=value file keyed like the flags; explicit flags override it")
    if command == "solve":
        p.add_argument("--points", default="", help="interior points 'x,t;x,t;...'")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heatbem",
        description="Space-time boundary element studies for the 1D heat equation",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, text in (("study-uniform", "dyadic refinement study"),
                          ("study-adaptive", "adaptive refinement study"),
                          ("solve", "single solve with interior samples")):
        _command_flags(sub.add_parser(command, help=text, allow_abbrev=False), command)
    return ap


def _parse_args(argv) -> argparse.Namespace:
    """Parse ``argv``; an unknown argument is reported with its command's usage."""
    ap = _parser()
    args, unknown = ap.parse_known_args(argv)
    if unknown:
        sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
        sub.choices[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    return args


def _load_config_file(path: Path, command: str) -> dict:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    table = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line (need key=value): {raw!r}")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in _COMMAND_KEYS[command]:
            raise ConfigError(f"unknown config key for {command}: {key!r}")
        try:
            table[key] = _OPTIONS[key][1](text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"bad value for {key}: {text!r}") from exc
    return table


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Explicit flag > config file > _DEFAULTS > ExperimentConfig default, key by key."""
    keys = _COMMAND_KEYS[args.command]
    values = {key: _DEFAULTS[key] for key in keys if key in _DEFAULTS}
    if args.config is not None:
        values.update(_load_config_file(args.config, args.command))
    values.update((key, v) for key in keys if (v := getattr(args, key)) is not None)
    cfg = ExperimentConfig(**{_OPTIONS[key][0]: value for key, value in values.items()})
    cfg.validate(adaptive=args.command == "study-adaptive")
    return cfg


def _out_dir(args: argparse.Namespace) -> Path:
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {args.out}: {exc}") from exc
    return args.out


def _dump_level(out: Path, mats, rhs, tag: str) -> None:
    write_matrix_text(out / f"V_{tag}.txt", mats.V)
    write_matrix_text(out / f"D_{tag}.txt", mats.D)
    write_matrix_text(out / f"rhs_{tag}.txt", rhs)


def _write_mesh(out: Path, tag: str, mesh, flux=None) -> None:
    """mesh_<tag>.txt and, given a flux, flux_<tag>.txt (each mesh line, then its
    coefficient) in one pass over ``mesh_mod.element_lines``: each line and each
    coefficient is formatted once, and no whole-file text or list of lines is built."""
    lines = mesh_mod.element_lines(mesh)
    with open(out / f"mesh_{tag}.txt", "w") as mesh_fh:
        if flux is None:
            mesh_fh.writelines(f"{line}\n" for line in lines)
            return
        with open(out / f"flux_{tag}.txt", "w") as flux_fh:
            for line, w in zip(lines, flux.coefficients):
                mesh_fh.write(f"{line}\n")
                flux_fh.write(f"{line} {w:.17g}\n")


def _cmd_study(args) -> int:
    adaptive = args.command == "study-adaptive"
    cfg = _build_config(args)
    out = _out_dir(args)
    problem, _ = build_problem(cfg)
    if adaptive:
        records, meshes = run_adaptive_study(cfg)
        style, table = "adaptive", "table2"
    else:
        records, meshes = run_uniform_study(cfg)
        style, table = "uniform", "table1"
    (out / f"{table}.csv").write_text(records_to_csv(records))
    convention = "eig" if cfg.kappa_convention == "eig" else "sv"
    markdown = records_to_markdown(records, style=style, convention=convention)
    (out / f"{table}.md").write_text(markdown)
    (out / "meta.txt").write_text(meta_text(cfg, args.command, _READ_FIELDS[args.command]))
    for rec, m in zip(records, meshes):
        _write_mesh(out, f"L{rec.L}", m)
        if args.dump_matrices:  # the studies keep no matrices: assemble again
            mats, rhs = assemble_all(m, problem.alpha), assemble_rhs(m, problem)
            _dump_level(out, mats, rhs, f"L{rec.L}")
    sys.stdout.write(markdown)
    return EXIT_OK


def _parse_points(text: str):
    pts = []
    for chunk in filter(None, (part.strip() for part in text.split(";"))):
        try:
            x, t = (float(value) for value in chunk.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad point {chunk!r}; expected 'x,t': {exc}") from exc
        pts.append((x, t))
    return pts


def _cmd_solve(args) -> int:
    cfg = _build_config(args)
    points = _parse_points(args.points)
    out = _out_dir(args)
    result = run_single_solve(cfg, points)
    tag = f"L{cfg.max_level}"
    _write_mesh(out, tag, result.mesh, result.flux)
    (out / "meta.txt").write_text(meta_text(cfg, "solve", _READ_FIELDS["solve"]))
    if args.dump_matrices:
        _dump_level(out, result.matrices, result.rhs, tag)
    if result.interior_samples:
        rows = ["x,t,u_h,u_reference,abs_error"]
        for x, t, uh, uref in result.interior_samples:
            rows.append(
                f"{x:.17g},{t:.17g},{uh:.17g},{uref:.17g},{abs(uh - uref):.17g}"
            )
        (out / "interior.csv").write_text("\n".join(rows) + "\n")
        sys.stdout.write("\n".join(rows) + "\n")
    sys.stdout.write(
        f"solved N={result.mesh.n_elements} in {result.iterations} iterations\n"
    )
    return EXIT_OK


def main(argv=None) -> int:
    args = _parse_args(argv)
    handlers = {
        "study-uniform": _cmd_study,
        "study-adaptive": _cmd_study,
        "solve": _cmd_solve,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except (NumericalError, QuadratureError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
