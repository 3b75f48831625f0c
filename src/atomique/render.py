"""Static per-stage SVG frames of a schedule.

One file per stage (stage_000.svg, stage_001.svg, ...): empty lattice sites
as faint dots, trapped atoms as filled circles (static array black, movable
arrays colored), and a line per two-qubit gate executed in that stage.  All
coordinates are emitted with fixed precision so output is byte-deterministic.
"""

from __future__ import annotations

import os

from .arch import atom_positions, slm_position
from .stage_router import Schedule, lane_walk

_PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_stage_svg(schedule: Schedule, k: int, pos) -> str:
    """SVG document for stage k, its atoms at the (n, 2) positions `pos`."""
    cfg = schedule.config
    stage = schedule.stages[k]

    lattice = [slm_position(r, c, cfg)
               for r in range(cfg.slm_rows) for c in range(cfg.slm_cols)]
    xs = [p[0] for p in lattice] + [p[0] for p in pos]
    ys = [p[1] for p in lattice] + [p[1] for p in pos]
    pad = cfg.D_site
    x0, y0 = min(xs) - pad, min(ys) - pad
    w, h = max(xs) - x0 + pad, max(ys) - y0 + pad
    r_atom = cfg.D_site / 6.0

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(x0)} {_fmt(y0)} '
        f'{_fmt(w)} {_fmt(h)}" width="{_fmt(w * 4)}" height="{_fmt(h * 4)}">',
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(w)}" height="{_fmt(h)}" fill="white"/>',
    ]
    for x, y in lattice:
        out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r_atom / 3)}" fill="#cccccc"/>')
    for a, b in stage.cz:
        xa, ya = pos[a]
        xb, yb = pos[b]
        out.append(f'<line x1="{_fmt(xa)}" y1="{_fmt(ya)}" x2="{_fmt(xb)}" y2="{_fmt(yb)}" '
                   f'stroke="#999999" stroke-width="{_fmt(r_atom / 2)}"/>')
    for q, (x, y) in enumerate(pos):
        arr = schedule.placement[q].array
        color = "#000000" if arr == 0 else _PALETTE[(arr - 1) % len(_PALETTE)]
        out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r_atom)}" fill="{color}"/>')
        out.append(f'<text x="{_fmt(x + r_atom)}" y="{_fmt(y - r_atom / 2)}" '
                   f'font-size="{_fmt(r_atom * 1.5)}" fill="#333333">{q}</text>')
    out.append(f'<text x="{_fmt(x0 + 2)}" y="{_fmt(y0 + h - 2)}" '
               f'font-size="{_fmt(cfg.D_site / 3)}" fill="#333333">stage {k}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_schedule(schedule: Schedule, out_dir: str) -> list[str]:
    """Write one SVG per stage, a lane walk block at a time, into out_dir;
    return the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for k0, lanes, moved in lane_walk(schedule):
        block = atom_positions(lanes, schedule.config).reshape(*moved.shape, 2)
        for k, pos in enumerate(block.tolist(), k0):
            path = os.path.join(out_dir, f"stage_{k:03d}.svg")
            with open(path, "w") as fh:
                fh.write(render_stage_svg(schedule, k, pos))
            paths.append(path)
    return paths
