#!/usr/bin/env python3
"""Reports where a program spent its CPU time, from rod_sampler output.

Run the program under the sampler (tools/rod_sampler.cc), then report:

    LD_PRELOAD=build/tools/librod_sampler.so build/bench/bench_chaos
    python3 tools/rod_profile.py rod_sampler.*.out

Several files (several runs, or a program and its children) add up. Each
sampled program counter is symbolized with `addr2line -a -f -C -i`, one
call per module. A counter inside inlined code has a chain of frames,
innermost first, and the sample is charged to the innermost frame whose
source file lies in this repository: a std:: algorithm inlined into
engine code counts for the engine function that called it. A lambda,
which addr2line names only `operator()`, takes the name of the frame it
is inlined into, or its symbol's name from `nm` when it is not inlined.
A sample with no repository frame (libc, libstdc++, a binary built
without -g) is charged to its innermost named frame, or its symbol,
prefixed with its module. Parameter lists are dropped from the names.
Prints each function's share of the samples, most first.
"""

import argparse
import bisect
import collections
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))


def fail(message):
    print("rod_profile.py: " + message, file=sys.stderr)
    sys.exit(1)


def read_samples(paths):
    """Counts samples per (module path, offset from its load base)."""
    counts = collections.Counter()
    total = dropped = 0
    for path in paths:
        modules = []
        located = {}
        with open(path) as f:
            header = f.readline().split()
            if header[:2] != ["rod_sampler", "1"]:
                fail("%s is not rod_sampler output" % path)
            for field in header[2:]:
                key, _, value = field.partition("=")
                if key == "dropped":
                    dropped += int(value)
            for line in f:
                kind, _, rest = line.rstrip("\n").partition(" ")
                if kind == "module":
                    start, end, base, name = rest.split(" ", 3)
                    modules.append((int(start, 16), int(end, 16),
                                    int(base, 16), name))
                elif kind == "pc":
                    pc = int(rest, 16)
                    total += 1
                    if pc not in located:
                        located[pc] = ("[unknown]", pc)
                        for start, end, base, name in modules:
                            if start <= pc < end:
                                located[pc] = (name, pc - base)
                                break
                    counts[located[pc]] += 1
    return counts, total, dropped


def symbolize(module, offsets):
    """Maps each offset to its inline chain [(function, file:line)]."""
    request = "".join("%#x\n" % o for o in offsets)
    try:
        out = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e",
                              module], input=request, capture_output=True,
                             text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return {}
    chains = {}
    lines = out.splitlines()
    i = 0
    current = None
    while i < len(lines):
        if lines[i].startswith("0x"):
            current = chains.setdefault(int(lines[i], 16), [])
            i += 1
        elif current is not None and i + 1 < len(lines):
            current.append((lines[i], lines[i + 1]))
            i += 2
        else:
            i += 1
    return chains


def symbol_table(module):
    """Sorted (addresses, names) of the module's function symbols."""
    for dynamic in ([], ["-D"]):
        try:
            out = subprocess.run(["nm", "-C", "--defined-only"] + dynamic +
                                 [module], capture_output=True, text=True,
                                 check=True).stdout
        except (OSError, subprocess.CalledProcessError):
            continue
        table = []
        for line in out.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "tTwWiI":
                table.append((int(parts[0], 16), parts[2]))
        if table:
            table.sort()
            return [a for a, _ in table], [n for _, n in table]
    return [], []


def short(name):
    """Drops parameter lists: `f(int, g<h>) const` becomes `f() const`."""
    name = name.replace("(anonymous namespace)", "{anonymous}")
    out = []
    depth = 0
    for c in name:
        if c == "(":
            if depth == 0:
                out.append(c)
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                out.append(c)
        elif depth == 0:
            out.append(c)
    return "".join(out)


def charge(chain, symbol, module, root):
    """The function a sample with this inline chain is charged to."""
    for i, (function, location) in enumerate(chain):
        if location.startswith(root + os.sep):
            if i + 1 == len(chain) and symbol:
                function = symbol  # Out of line: the full symbol name.
            elif "::" not in function and i + 1 < len(chain):
                function = chain[i + 1][0] + "::" + function
            return short(function)
    name = chain[0][0] if chain and chain[0][0] != "??" else symbol
    prefix = "[%s]" % os.path.basename(module)
    return prefix + " " + short(name) if name else prefix


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="+", help="rod_sampler.<pid>.out")
    parser.add_argument("--top", type=int, default=30,
                        help="functions to list (default 30)")
    parser.add_argument("--root", default=ROOT,
                        help="source tree whose frames are charged "
                             "(default: this repository)")
    args = parser.parse_args()

    counts, total, dropped = read_samples(args.files)
    if total == 0:
        fail("no samples in %s" % " ".join(args.files))
    by_module = collections.defaultdict(set)
    for module, offset in counts:
        if module != "[unknown]":
            by_module[module].add(offset)
    chains = {}
    symbols = {}
    for module, offsets in by_module.items():
        for offset, chain in symbolize(module, sorted(offsets)).items():
            chains[(module, offset)] = chain
        addresses, names = symbol_table(module)
        for offset in offsets:
            i = bisect.bisect_right(addresses, offset) - 1
            if i >= 0:
                symbols[(module, offset)] = names[i]
    root = os.path.realpath(args.root)
    per_function = collections.Counter()
    for key, n in counts.items():
        per_function[charge(chains.get(key, []), symbols.get(key),
                            key[0], root)] += n

    print("%d samples from %d file(s), %d dropped" %
          (total, len(args.files), dropped))
    print("%7s %8s  %s" % ("share", "samples", "function"))
    listed = per_function.most_common(args.top)
    for function, n in listed:
        print("%6.1f%% %8d  %s" % (100.0 * n / total, n, function))
    rest = total - sum(n for _, n in listed)
    if rest > 0:
        print("%6.1f%% %8d  (%d more functions)" %
              (100.0 * rest / total, rest, len(per_function) - len(listed)))


if __name__ == "__main__":
    main()
