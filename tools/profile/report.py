#!/usr/bin/env python3
"""Report a profshim or heapshim profile. Standard library plus binutils' addr2line.

    report.py profshim.<pid> [--filter REGEX]
    report.py heapshim.<pid> [--filter REGEX]

reads profshim.<pid>.samples and profshim.<pid>.maps (see profshim.c),
resolves every address with `addr2line -a -f -i -C` (inlined frames
included) and prints the top rows of three tables, each as a share of all
samples:

    self        the function the interrupted PC was in (innermost inline);
    inclusive   every function anywhere on the sample's stack, once per sample;
    line        the source line of the interrupted PC.

Given a heapshim prefix it reads heapshim.<pid>.heap instead (see
heapshim.c) and prints the live heap at its peak, in MiB and as a share of
the peak, by three keys:

    site        the first frame in a C or C++ source file (.c, .cc, .cpp,
                .hpp, ...) that is not an allocator (operator new, malloc,
                a function named allocate), so allocator, standard-library
                and allocation-counting frames are passed over: the line of
                the program that allocated;
    path        the site and the next two source-file frames above it;
    inclusive   every function anywhere on the stack, once per stack.

--filter keeps only samples (or stacks) with a function matching REGEX on
their stack (e.g. 'KvStateMachine::apply'); shares stay fractions of all
samples (or of the peak), so the filtered tables read as "time (or memory)
spent here, under that caller".

Return addresses are looked up one byte back, inside the call instruction.
A module that is not position independent (an executable linked -no-pie) is
looked up at the raw address; others at the address minus their load bias.
"""

import argparse
import bisect
import collections
import os
import re
import struct
import subprocess
import sys

ET_EXEC = 2
ROWS = 30  # rows printed per table
SOURCE_FILE = re.compile(r"\.(?:c|cc|cpp|cxx|hh|hpp):\d+$")  # a heap site's location
ALLOCATOR = re.compile(r"\b(?:operator new|allocate|malloc|calloc|realloc)\b")


def read_maps(path):
    """Executable file mappings as sorted (start, end, offset, module) tuples."""
    maps = []
    with open(path) as f:
        for line in f:
            fields = line.split(maxsplit=5)
            if len(fields) < 6 or "x" not in fields[1] or not fields[5].startswith("/"):
                continue
            start, end = (int(x, 16) for x in fields[0].split("-"))
            maps.append((start, end, int(fields[2], 16), fields[5].strip()))
    maps.sort()
    return maps


def read_samples(path):
    """Each sample as a tuple of addresses, the interrupted PC first."""
    with open(path, "rb") as f:
        data = f.read()
    samples, pos = [], 0
    while pos + 8 <= len(data):
        (count,) = struct.unpack_from("<Q", data, pos)
        pos += 8
        if pos + 8 * count > len(data):
            break  # a record cut short by the exit
        samples.append(struct.unpack_from(f"<{count}Q", data, pos))
        pos += 8 * count
    return samples


def read_heap(path):
    """The peak live bytes, and each stack live at the peak as (bytes, addresses)."""
    with open(path, "rb") as f:
        data = f.read()
    (peak,) = struct.unpack_from("<Q", data, 0)
    stacks, pos = [], 8
    while pos + 16 <= len(data):
        live, count = struct.unpack_from("<QQ", data, pos)
        pos += 16
        stacks.append((live, struct.unpack_from(f"<{count}Q", data, pos)))
        pos += 8 * count
    return peak, stacks


def elf_type(module):
    try:
        with open(module, "rb") as f:
            header = f.read(18)
        return struct.unpack_from("<H", header, 16)[0]
    except OSError:
        return None


def resolve(module, addresses):
    """{address: [(function, file:line), ...] innermost inline frame first}."""
    out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", module]
                         + [f"{a:#x}" for a in sorted(addresses)],
                         capture_output=True, text=True, check=False).stdout.splitlines()
    # Each address line is followed by (function, file:line) pairs.
    frames, current, function = {}, None, None
    for line in out:
        if function is not None:
            location = line.rsplit("/", 1)[-1].split(" (discriminator")[0]
            frames[current].append((function, location))
            function = None
        elif line.startswith("0x"):
            current = int(line, 16)
            frames[current] = []
        else:
            function = line
    return frames


def symbolize(samples, maps, pc_first=True):
    """Each sample as its expanded stack: [(function, file:line), ...], innermost first.

    A sample starts with an interrupted PC unless pc_first is False (a heap
    stack holds return addresses only)."""
    starts = [m[0] for m in maps]
    lookups = collections.defaultdict(set)  # module -> module-relative addresses
    keyed = []  # per sample: [(module, relative address) or None]
    exec_modules = {}
    for sample in samples:
        keys = []
        for depth, address in enumerate(sample):
            if depth > 0 or not pc_first:
                address -= 1  # inside the call instruction, not after it
            i = bisect.bisect_right(starts, address) - 1
            if i < 0 or address >= maps[i][1]:
                keys.append(None)
                continue
            start, _, offset, module = maps[i]
            if module not in exec_modules:
                exec_modules[module] = elf_type(module) == ET_EXEC
            relative = address if exec_modules[module] else address - start + offset
            lookups[module].add(relative)
            keys.append((module, relative))
        keyed.append(keys)
    resolved = {module: resolve(module, addresses) for module, addresses in lookups.items()}
    stacks = []
    for keys in keyed:
        stack = []
        for key in keys:
            if key is None:
                stack.append(("??", "??:0"))
                continue
            module, relative = key
            stack.extend(resolved[module].get(relative) or [("??", "??:0")])
        stacks.append(stack)
    return stacks


def print_table(title, counter, total, value=lambda n: f"{n:7d}"):
    print(f"\n{title}")
    for name, n in counter.most_common(ROWS):
        print(f"  {100.0 * n / total:6.2f}%  {value(n)}  {name[:140]}")


def report_heap(prefix, pattern):
    peak, live = read_heap(prefix + ".heap")
    if not live:
        sys.exit(f"{prefix}.heap holds no live stack")
    stacks = symbolize([addresses for _, addresses in live], read_maps(prefix + ".maps"),
                       pc_first=False)
    site, path, inclusive = (collections.Counter() for _ in range(3))
    kept = 0
    for (size, _), stack in zip(live, stacks):
        if pattern and not any(pattern.search(fn) for fn, _ in stack):
            continue
        kept += size
        frames = [(fn, loc) for fn, loc in stack
                  if SOURCE_FILE.search(loc) and not ALLOCATOR.search(fn)] or stack[:1]
        site[f"{frames[0][1]}  {frames[0][0]}"] += size
        path[" < ".join(loc for _, loc in frames[:3])] += size
        for fn in {fn for fn, _ in stack}:
            inclusive[fn] += size
    mib = lambda n: f"{n / 2**20:9.2f} MiB"  # noqa: E731
    print(f"live heap at peak: {mib(peak).strip()} in {len(live)} stacks"
          + (f"; {mib(kept).strip()} ({100.0 * kept / peak:.2f}%) under --filter "
             f"{pattern.pattern!r}" if pattern else ""))
    print_table("site (first frame in a source file)", site, peak, mib)
    print_table("path (site < caller < caller)", path, peak, mib)
    print_table("inclusive (anywhere on the stack)", inclusive, peak, mib)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("prefix", help="profshim.<pid> or heapshim.<pid> (the path without "
                        ".samples/.heap/.maps)")
    parser.add_argument("--filter", help="keep samples with a matching function on the stack")
    args = parser.parse_args()
    if os.path.exists(args.prefix + ".heap"):
        report_heap(args.prefix, re.compile(args.filter) if args.filter else None)
        return

    samples = read_samples(args.prefix + ".samples")
    if not samples:
        sys.exit(f"{args.prefix}.samples holds no samples")
    stacks = symbolize(samples, read_maps(args.prefix + ".maps"))
    total = len(stacks)
    if args.filter:
        pattern = re.compile(args.filter)
        stacks = [s for s in stacks if any(pattern.search(fn) for fn, _ in s)]

    self_time, inclusive, lines = collections.Counter(), collections.Counter(), collections.Counter()
    for stack in stacks:
        self_time[stack[0][0]] += 1
        lines[f"{stack[0][1]}  {stack[0][0]}"] += 1
        inclusive.update({fn for fn, _ in stack})
    print(f"{total} samples" + (f"; {len(stacks)} ({100.0 * len(stacks) / total:.2f}%) "
                                f"match --filter {args.filter!r}" if args.filter else ""))
    print_table("self (interrupted function)", self_time, total)
    print_table("inclusive (anywhere on the stack)", inclusive, total)
    print_table("line (interrupted source line)", lines, total)


if __name__ == "__main__":
    main()
