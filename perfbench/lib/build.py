"""Builds the program and the trace harness from source, and stamps results
with the machine and build they came from."""

import glob
import hashlib
import os
import shutil
import subprocess

BINARIES = ("round_eliminator_cli", "relb_served", "relb_localsim")
BUILD_TYPE = "Release"


class BuildError(Exception):
    pass


class Build:
    """Paths of one checkout's benchmark build."""

    def __init__(self, root):
        self.root = root
        self.dir = os.path.join(root, ".bench_build")
        self.program_dir = os.path.join(self.dir, "relb")
        self.harness_dir = os.path.join(self.dir, "harness")
        self.work = os.path.join(self.dir, "work")

    def binary(self, name):
        return os.path.join(self.program_dir, "examples", name)

    @property
    def harness(self):
        return os.path.join(self.harness_dir, "perfbench_harness")


def _generator_args():
    return ["-G", "Ninja"] if shutil.which("ninja") else []


def _run(args, log):
    result = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    log.write(result.stdout.decode(errors="replace"))
    if result.returncode != 0:
        raise BuildError("command failed (%d): %s" % (result.returncode, " ".join(args)))


def _configure_and_build(source, build_dir, targets, extra, log, jobs):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        _run(["cmake", "-S", source, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + _generator_args() + extra, log)
    _run(["cmake", "--build", build_dir, "-j", str(jobs), "--target"] + list(targets), log)


def build_all(root):
    """Builds the three shipped binaries with the repo's own CMake project,
    and the harness package (perfbench/harness) against the same sources."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        raise BuildError("no relb sources at %s" % root)
    b = Build(root)
    os.makedirs(b.dir, exist_ok=True)
    jobs = max(1, os.cpu_count() or 1)
    with open(os.path.join(b.dir, "build.log"), "a") as log:
        _configure_and_build(root, b.program_dir, BINARIES, [], log, jobs)
        _configure_and_build(os.path.join(root, "perfbench", "harness"), b.harness_dir,
                             ["perfbench_harness"], ["-DRELB_ROOT=" + root], log, jobs)
    for name in BINARIES:
        if not os.access(b.binary(name), os.X_OK):
            raise BuildError("missing binary %s" % b.binary(name))
    return b


def _cache_value(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _llc_bytes():
    best_level, best_size = 0, 0
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as f:
                level = int(f.read())
            with open(os.path.join(index, "size")) as f:
                text = f.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        if level >= best_level:
            best_level, best_size = level, size
    return best_size


def _source_digest(root):
    digest = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for top in ("src", "examples"):
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            paths += [os.path.join(dirpath, f) for f in files]
    for path in sorted(paths):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()[:16]


def _git_revision(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "none"  # an exported checkout; the source digest identifies it
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return "none"
    return out.stdout.decode().strip() if out.returncode == 0 else "none"


def stamp(b, lanes):
    """Where and how a result was taken.  `lanes` is the effective width the
    workload ran the program at."""
    compiler = _cache_value(b.program_dir, "CMAKE_CXX_COMPILER")
    version = "unknown"
    if compiler != "unknown":
        out = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL)
        version = out.stdout.decode(errors="replace").splitlines()[0] if out.stdout else compiler
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "lanes": lanes,
        "build_type": _cache_value(b.program_dir, "CMAKE_BUILD_TYPE"),
        "compiler": version,
        "git_revision": _git_revision(b.root),
        "source_digest": _source_digest(b.root),
        "llc_bytes": _llc_bytes(),
    }
