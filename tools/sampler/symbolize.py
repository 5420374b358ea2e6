#!/usr/bin/env python3
"""Turn the raw stacks sampler.so wrote into profile tables.

    symbolize.py BINARY PREFIX [--self | --incl | --children-of RE | --under RE
                                | --lines RE] [--top N] [--min PCT]

Reads every PREFIX.<pid>.raw / PREFIX.<pid>.maps pair whose process ran
BINARY (other processes — the shell, the benchmark's parent — are
reported and skipped), symbolises addresses inside BINARY with `nm`, and
labels every other address by the file it is mapped from
(`[libc.so.6]`). A frame inlined into its caller has no symbol of its
own and counts as the caller. Shares are of all samples read.

  --self             samples by the function that was running (default)
  --incl             samples by function anywhere on the stack, once each
  --children-of RE   for stacks holding a frame that matches RE: what the
                     innermost such frame was calling (`<self>` when it
                     was the one running)
  --under RE         for the same stacks: --incl over the frames below
                     the innermost match only
  --lines RE         for samples whose running function matches RE: the
                     source line it was at, inlined frames included
                     (`addr2line -i`), with the line of the function's
                     own body the inlined code sits in
"""

import argparse
import bisect
import collections
import glob
import os
import re
import struct
import subprocess
import sys


def load_symbols(binary):
    """Sorted start addresses and names of BINARY's text symbols."""
    out = subprocess.run(
        ["nm", "-C", "--defined-only", "-n", binary],
        check=True, capture_output=True, text=True,
    ).stdout
    starts, names = [], []
    for line in out.splitlines():
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[1] in "tTwW":
            starts.append(int(parts[0], 16))
            # Rust's legacy mangling ends every path in ::h<16 hex>.
            names.append(re.sub(r"::h[0-9a-f]{16}$", "", parts[2]))
    return starts, names


def load_maps(path):
    """[(start, end, file offset, mapped file)] of one process."""
    maps = []
    with open(path) as f:
        for line in f:
            fields = line.split(None, 5)
            if len(fields) == 6:
                start, end = (int(x, 16) for x in fields[0].split("-"))
                maps.append((start, end, int(fields[2], 16), fields[5].strip()))
    return maps


def read_stacks(path):
    with open(path, "rb") as f:
        data = f.read()
    pos = 0
    while pos + 8 <= len(data):
        (depth,) = struct.unpack_from("<Q", data, pos)
        pos += 8
        if depth > 4096 or pos + 8 * depth > len(data):
            break  # a torn last record
        yield struct.unpack_from(f"<{depth}Q", data, pos)
        pos += 8 * depth


def source_lines(binary, offsets):
    """{offset: [(function, file:line)]} for OFFSETS in BINARY, innermost
    inlined frame first, through one `addr2line -i` run (addresses on its
    stdin, so a large profile fits no command line limit)."""
    out = subprocess.run(
        ["addr2line", "-i", "-f", "-C", "-a", "-e", binary],
        input="".join(f"{o:#x}\n" for o in offsets),
        check=True, capture_output=True, text=True,
    ).stdout
    lines, at = {}, None
    rows = iter(out.splitlines())
    for row in rows:
        if row.startswith("0x"):
            at = int(row, 16)
            lines[at] = []
            continue
        where = next(rows, "??:0")
        # Keep the file and its directory (`ptr/mod.rs` is not
        # `vec/mod.rs`); drop any " (discriminator N)".
        where = "/".join(where.split(" ")[0].split("/")[-2:])
        lines[at].append((re.sub(r"::h[0-9a-f]{16}$", "", row), where))
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("binary")
    ap.add_argument("prefix")
    view = ap.add_mutually_exclusive_group()
    view.add_argument("--self", dest="view", action="store_const", const="self")
    view.add_argument("--incl", dest="view", action="store_const", const="incl")
    view.add_argument("--children-of", metavar="RE")
    view.add_argument("--under", metavar="RE")
    view.add_argument("--lines", metavar="RE")
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("--min", type=float, default=0.0, metavar="PCT")
    args = ap.parse_args()

    binary = os.path.realpath(args.binary)
    starts, names = load_symbols(binary)

    def name_of(addr, maps, base):
        # A return address points after the call; the leaf's points at
        # the interrupted instruction. Both lie inside their function.
        for start, end, _, mapped in maps:
            if start <= addr < end:
                if os.path.realpath(mapped) != binary:
                    return f"[{os.path.basename(mapped) or 'anon'}]"
                i = bisect.bisect_right(starts, addr - base) - 1
                return names[i] if i >= 0 else "[?]"
        return "[?]"

    # Per stack, the running instruction's offset in BINARY (meaningful
    # only where the leaf frame lies in BINARY).
    stacks, leaves = [], []
    for raw in sorted(glob.glob(glob.escape(args.prefix) + ".*.raw")):
        maps = load_maps(raw[:-4] + ".maps")
        # A PIE's symbol values are offsets from where its first
        # segment (file offset 0) was mapped.
        base = min((m[0] for m in maps if m[2] == 0 and os.path.realpath(m[3]) == binary),
                   default=None)
        if base is None:
            print(f"skipped {raw}: not {os.path.basename(binary)}", file=sys.stderr)
            continue
        cache = {}
        for addrs in read_stacks(raw):
            frames = []
            for a in addrs:
                if a not in cache:
                    cache[a] = name_of(a, maps, base)
                frames.append(cache[a])
            # Leaf first. Drop the handler and the signal trampoline: the
            # sampler's own frames and the libc frame that follows them.
            cut = max((i for i, f in enumerate(frames) if f == "[sampler.so]"), default=-1)
            frames, addrs = frames[cut + 2:], addrs[cut + 2:]
            if frames:
                stacks.append(frames)
                leaves.append(addrs[0] - base)
    total = len(stacks)
    if total == 0:
        sys.exit("no samples")

    counts = collections.Counter()
    pattern = args.children_of or args.under
    if args.lines:
        rx = re.compile(args.lines)
        picked = [leaves[i] for i, frames in enumerate(stacks) if rx.search(frames[0])]
        where = source_lines(binary, sorted(set(picked)))
        for offset in picked:
            chain = where.get(offset) or [("??", "??:0")]
            func, line = chain[0]
            row = f"{line:<32} {func}"
            if len(chain) > 1:
                row += f"  [in {chain[-1][1]}]"
            counts[row] += 1
        print(f"{len(picked)} of {total} samples ({100 * len(picked) / total:.1f} %) "
              f"ran in a function matching {args.lines!r}")
    elif pattern:
        rx = re.compile(pattern)
        held = 0
        for frames in stacks:
            at = next((i for i, f in enumerate(frames) if rx.search(f)), None)
            if at is None:
                continue
            held += 1
            if args.children_of:
                counts[frames[at - 1] if at > 0 else "<self>"] += 1
            else:
                counts.update(set(frames[:at]))
        print(f"{held} of {total} samples ({100 * held / total:.1f} %) hold a frame "
              f"matching {pattern!r}")
    elif args.view == "incl":
        for frames in stacks:
            counts.update(set(frames))
    else:
        for frames in stacks:
            counts[frames[0]] += 1

    if not (pattern or args.lines):
        print(f"{total} samples")
    for name, n in counts.most_common(args.top):
        share = 100 * n / total
        if share < args.min:
            break
        print(f"{share:6.2f} %  {n:7d}  {name}")


if __name__ == "__main__":
    main()
