#!/usr/bin/env python3
"""Validate the checked-in fuzz regression corpus (tests/corpus/).

Each *.lirk file is a serialized O0 lir::Kernel in the cache blob
format (src/cache/blob_store.h): a 24-byte little-endian header
{magic u32, version u32, payload size u64, payload checksum u64}
followed by the payload. This script re-implements the payload checksum
(XXH64 with seed 0, cache::payloadHash) and checks, without building
anything:

  * the checksum reproduces its pinned vector (the one
    WireFormat.PayloadChecksumHasPinnedVector checks in C++);
  * header magic is "TLFX" (0x544c4658) and version matches
    kCacheFormatVersion;
  * the size field equals the actual payload length (no truncation);
  * the payload checksum matches (no bit rot);
  * file names follow <bug-class>_<hex seed>.lirk and every generator
    bug class (layout, masking, sync, dtype, control) is represented.

Functional re-verification — running every corpus kernel through the
six differential legs {O0, O2} x {treewalk, microop} x {direct,
round-tripped} — needs the built tree and lives in
tests/test_fuzz.cc (Fuzz.CheckedInCorpusPassesSixWay); this script is
the no-build half wired into the CI docs job.

Exit status: 0 when the corpus is sound, 1 otherwise. Run from
anywhere:

    python3 tools/check_fuzz.py [repo_root]
"""
import os
import re
import struct
import sys

CORPUS_MAGIC = 0x544C4658  # "TLFX"
FORMAT_VERSION = 1
HEADER = struct.Struct("<IIQQ")  # magic, version, payload size, checksum

BUG_CLASSES = ("layout", "masking", "sync", "dtype", "control")
NAME_RE = re.compile(r"^(%s)_[0-9a-f]+\.lirk$" % "|".join(BUG_CLASSES))

MASK = (1 << 64) - 1
P1 = 0x9E3779B185EBCA87
P2 = 0xC2B2AE3D27D4EB4F
P3 = 0x165667B19E3779F9
P4 = 0x85EBCA77C2B2AE63
P5 = 0x27D4EB2F165667C5

# payload_hash(bytes(range(72))), as pinned in tests/test_cache.cc.
PINNED_VECTOR = 0xFB0B1F050CB8F00D


def rotl(v, s):
    return ((v << s) | (v >> (64 - s))) & MASK


def lane(acc, word):
    return rotl((acc + word * P2) & MASK, 31) * P1 & MASK


def payload_hash(data):
    """XXH64 of `data` with seed 0 (cache::payloadHash)."""
    n, p = len(data), 0
    if n >= 32:
        v = [(P1 + P2) & MASK, P2, 0, (-P1) & MASK]
        while n - p >= 32:
            for i in range(4):
                v[i] = lane(v[i], int.from_bytes(data[p:p + 8], "little"))
                p += 8
        h = (rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12) +
             rotl(v[3], 18)) & MASK
        for acc in v:
            h = ((h ^ lane(0, acc)) * P1 + P4) & MASK
    else:
        h = P5
    h = (h + n) & MASK
    while n - p >= 8:
        word = int.from_bytes(data[p:p + 8], "little")
        h = (rotl(h ^ lane(0, word), 27) * P1 + P4) & MASK
        p += 8
    if n - p >= 4:
        word = int.from_bytes(data[p:p + 4], "little")
        h = (rotl(h ^ (word * P1 & MASK), 23) * P2 + P3) & MASK
        p += 4
    while p < n:
        h = rotl(h ^ (data[p] * P5 & MASK), 11) * P1 & MASK
        p += 1
    h ^= h >> 33
    h = h * P2 & MASK
    h ^= h >> 29
    h = h * P3 & MASK
    return h ^ (h >> 32)


def check_file(path, errors):
    name = os.path.basename(path)
    if not NAME_RE.match(name):
        errors.append("%s: name is not <bug-class>_<hex seed>.lirk" % name)
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < HEADER.size:
        errors.append("%s: truncated header (%d bytes)" % (name, len(blob)))
        return None
    magic, version, size, digest = HEADER.unpack_from(blob)
    payload = blob[HEADER.size:]
    if magic != CORPUS_MAGIC:
        errors.append("%s: bad magic 0x%08x" % (name, magic))
    if version != FORMAT_VERSION:
        errors.append("%s: version %d != %d" % (name, version, FORMAT_VERSION))
    if size != len(payload):
        errors.append("%s: size field %d != payload %d"
                      % (name, size, len(payload)))
    if digest != payload_hash(payload):
        errors.append("%s: payload checksum mismatch" % name)
    return name.split("_", 1)[0]


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else \
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    corpus = os.path.join(root, "tests", "corpus")
    if not os.path.isdir(corpus):
        print("missing corpus directory: %s" % corpus)
        return 1
    errors = []
    if payload_hash(bytes(range(72))) != PINNED_VECTOR:
        errors.append("payload checksum misses its pinned vector")
    classes = set()
    count = 0
    for name in sorted(os.listdir(corpus)):
        if not name.endswith(".lirk"):
            continue
        count += 1
        cls = check_file(os.path.join(corpus, name), errors)
        if cls:
            classes.add(cls)
    missing = [c for c in BUG_CLASSES if c not in classes]
    if missing:
        errors.append("bug classes without a corpus kernel: %s"
                      % ", ".join(missing))
    if count == 0:
        errors.append("corpus is empty")
    for e in errors:
        print(e)
    if errors:
        return 1
    print("check_fuzz: %d corpus kernels OK (%s)"
          % (count, ", ".join(sorted(classes))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
