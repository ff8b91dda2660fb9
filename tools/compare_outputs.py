"""Compare two directories of rofsim CLI outputs.

    python tools/compare_outputs.py DIR_A DIR_B

Lists every file of either directory as identical (byte for byte), differing,
or present on one side only. For a spectrum CSV that differs, it also prints
the largest |delta PSD| over the bins within 100 dB of that file's peak (in
either directory), and the largest over all bins with how far below the peak
that bin lies. Exits 0 when every file is byte-identical, else 1.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

SPECTRUM_HEADER = "# frequency_hz,psd_dbm_per_hz"
WITHIN_PEAK_DB = 100.0


def read_spectrum(path: Path) -> np.ndarray | None:
    """(frequency, psd) rows of a spectrum CSV; None for any other file."""
    lines = path.read_text().splitlines()
    if SPECTRUM_HEADER not in lines[:2]:
        return None
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def psd_difference(a: Path, b: Path) -> str:
    """How two spectrum CSVs differ, or '' when either is not one."""
    sa, sb = read_spectrum(a), read_spectrum(b)
    if sa is None or sb is None:
        return ""
    if sa.shape != sb.shape or not np.array_equal(sa[:, 0], sb[:, 0]):
        return "frequency axes differ"
    pa, pb = sa[:, 1], sb[:, 1]
    delta = np.abs(pa - pb)
    near = (pa >= pa.max() - WITHIN_PEAK_DB) | (pb >= pb.max() - WITHIN_PEAK_DB)
    worst = int(np.argmax(delta))
    below = max(pa.max() - pa[worst], pb.max() - pb[worst])
    return (f"max |dPSD| {delta[near].max():.6g} dB within {WITHIN_PEAK_DB:g} dB of the peak; "
            f"{delta[worst]:.6g} dB over all bins, {below:.1f} dB below the peak")


def compare(dir_a: Path, dir_b: Path) -> tuple[list[str], bool]:
    """Report lines for the files of both directories, and whether all are identical."""
    names = sorted({p.relative_to(d).as_posix() for d in (dir_a, dir_b)
                    for p in d.rglob("*") if p.is_file()})
    lines, same = [], True
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"only in {dir_a if a.is_file() else dir_b}: {name}")
            same = False
        elif a.read_bytes() == b.read_bytes():
            lines.append(f"identical: {name}")
        else:
            detail = psd_difference(a, b)
            lines.append(f"differs: {name}" + (f" ({detail})" if detail else ""))
            same = False
    return lines, same


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_outputs.py DIR_A DIR_B", file=sys.stderr)
        return 2
    lines, same = compare(Path(argv[0]), Path(argv[1]))
    print("\n".join(lines))
    print(f"{sum(line.startswith('identical') for line in lines)} of {len(lines)} files identical")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
