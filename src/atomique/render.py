"""Static per-stage SVG frames of a schedule.

One file per stage (stage_000.svg, stage_001.svg, ...): the SLM lattice
sites as faint dots (one SVG pattern fill, so a frame's size is the same for
any SLM), trapped atoms as filled circles (static array black, movable
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


def render_stage_svg(schedule: Schedule, k: int, stage, pos) -> str:
    """SVG document for stage k (`stage`), its atoms at the (n, 2) positions `pos`."""
    cfg = schedule.config

    corners = [slm_position(0, 0, cfg), slm_position(cfg.slm_rows - 1, cfg.slm_cols - 1, cfg)]
    xs = [p[0] for p in corners] + [p[0] for p in pos]
    ys = [p[1] for p in corners] + [p[1] for p in pos]
    pad = cfg.D_site
    x0, y0 = min(xs) - pad, min(ys) - pad
    w, h = max(xs) - x0 + pad, max(ys) - y0 + pad
    r_atom = cfg.D_site / 6.0
    half = cfg.D_site / 2

    # the lattice is one rect filled with a D_site tile whose dot sits at its
    # center, so a frame's size does not grow with the SLM
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(x0)} {_fmt(y0)} '
        f'{_fmt(w)} {_fmt(h)}" width="{_fmt(w * 4)}" height="{_fmt(h * 4)}">',
        f'<defs><pattern id="sites" x="{_fmt(-half)}" y="{_fmt(-half)}" '
        f'width="{_fmt(cfg.D_site)}" height="{_fmt(cfg.D_site)}" patternUnits="userSpaceOnUse">'
        f'<circle cx="{_fmt(half)}" cy="{_fmt(half)}" r="{_fmt(r_atom / 3)}" fill="#cccccc"/>'
        f'</pattern></defs>',
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(w)}" height="{_fmt(h)}" fill="white"/>',
        f'<rect x="{_fmt(-half)}" y="{_fmt(-half)}" width="{_fmt(cfg.slm_cols * cfg.D_site)}" '
        f'height="{_fmt(cfg.slm_rows * cfg.D_site)}" fill="url(#sites)"/>',
    ]
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
    for k0, block, lanes, moved, _ in lane_walk(schedule):
        positions = atom_positions(lanes, schedule.config).reshape(*moved.shape, 2)
        for k, (stage, pos) in enumerate(zip(block, positions.tolist()), k0):
            path = os.path.join(out_dir, f"stage_{k:03d}.svg")
            with open(path, "w") as fh:
                fh.write(render_stage_svg(schedule, k, stage, pos))
            paths.append(path)
    return paths
