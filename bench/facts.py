"""Machine and source facts recorded with every benchmark result.

Everything here is read-only: /proc/cpuinfo and the cache sizes under
/sys describe the machine; the source digest and, when the checkout is a
git work tree, the commit identify the code that was measured.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path


def _parse_size(text: str) -> int:
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def machine_facts() -> dict:
    facts = {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": None,
        "cache_bytes": {},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = _parse_size((index / "size").read_text().strip())
        except (OSError, ValueError):
            continue
        if kind != "Instruction":
            facts["cache_bytes"][f"L{level}"] = size
    return facts


def source_facts(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "linemend").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def cache_ratios(working_set: dict, machine: dict) -> dict:
    """Working-set bytes as a multiple of each data cache level."""
    total = working_set["total_bytes"]
    return {level: total / size for level, size in machine["cache_bytes"].items()}
