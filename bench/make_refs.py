"""Regenerate the stored figure references: python3 bench/make_refs.py

Writes figure_refs.json next to this file: the rows of ``diracmr figures
--which 1`` and ``--which 2`` at their defaults (60 points, q in (1, 7],
gamma m = 1), from 30-digit mpmath quadratures.
"""

import json
import pathlib

from references import figure_row

POINTS, Q_MIN, Q_MAX = 60, 1.0, 7.0

if __name__ == "__main__":
    qs = [Q_MIN + (Q_MAX - Q_MIN) * (k + 1) / POINTS for k in range(POINTS)]
    refs = {str(w): [list(figure_row(w, q)) for q in qs] for w in (1, 2)}
    out = pathlib.Path(__file__).with_name("figure_refs.json")
    body = ",\n".join(
        f" {json.dumps(w)}: [\n" + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n ]"
        for w, rows in refs.items()
    )
    out.write_text("{\n" + body + "\n}\n")
    print(f"wrote {out}")
