#!/usr/bin/env python3
"""Render and validate a kernel-profile document written via TILUS_PROFILE.

The document (schema "tilus-profile-v1", see src/obs/profile.h) carries
one KernelProfile per profiled kernel: per-instruction and per-region
attributed counters, each instruction's share of the modeled latency,
and a roofline bound classification per kernel and per region. The
report shows, for every kernel, the roofline verdict, the per-region
bound breakdown, and the top-N hotspot instructions by modeled
microseconds.

Validation (always applied, report or --check):
  * schema marker, build_info stamp, and a profiles array;
  * every profile carries kernel/engine/latency/bound/totals/regions/
    instructions with sane types;
  * bounds are members of the obs::Bound enum;
  * exactly three regions in prologue/main_loop/epilogue order;
  * conservation: per-instruction counters sum exactly to the profile
    totals, and per-region counters roll up the same way (the in-
    process invariant, re-checked on the serialized artifact);
  * cost split: for each latency component the regions sum to the
    profile's latency value (launch excluded), and each instruction's
    est_us is the sum of its components, both within 1e-9 relative.

Usage:
  report_profile.py PROFILE.json            # validate + render
  report_profile.py --check PROFILE.json    # validate only
  report_profile.py --run BINARY            # run BINARY with
                                            # TILUS_PROFILE, then
                                            # validate + render
  report_profile.py --top N PROFILE.json    # hotspot table depth
"""

import json
import os
import subprocess
import sys
import tempfile

BOUNDS = {"dram", "l2", "tensor_core", "simt", "alu", "smem",
          "serialization"}
REGIONS = ("prologue", "main_loop", "epilogue")
COMPONENTS = ("dram_us", "l2_us", "tc_us", "simt_us", "alu_us",
              "smem_us", "serial_us")
REL_TOL = 1e-9


def fail(msg):
    print(f"report_profile: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_counters(where, counters):
    if not isinstance(counters, dict) or not counters:
        fail(f"{where}: counters must be a non-empty object")
    for key, value in counters.items():
        if not isinstance(value, int) or isinstance(value, bool):
            fail(f"{where}: counter '{key}' is not an integer: {value!r}")


def add_counters(total, counters):
    for key, value in counters.items():
        total[key] = total.get(key, 0) + value


def check_close(where, what, got, want):
    if abs(got - want) > REL_TOL * abs(want):
        fail(f"{where}: {what} is {got!r}, expected {want!r} "
             f"(relative tolerance {REL_TOL})")


def check_components(where, components):
    if not isinstance(components, dict):
        fail(f"{where}: components must be an object")
    for c in COMPONENTS:
        value = components.get(c)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            fail(f"{where}: component '{c}' is not a number: {value!r}")


def validate_profile(profile, index):
    where = f"profiles[{index}]"
    for key, types in (("kernel", str), ("engine", str),
                       ("blocks_profiled", int), ("bound", str),
                       ("memory_bound", bool),
                       ("arith_intensity", (int, float)),
                       ("ridge_flops_per_byte", (int, float)),
                       ("latency", dict), ("totals", dict),
                       ("regions", list), ("instructions", list)):
        if key not in profile or not isinstance(profile[key], types):
            fail(f"{where} has a missing or mistyped '{key}'")
    where = f"profiles[{index}] ({profile['kernel']})"
    if profile["bound"] not in BOUNDS:
        fail(f"{where}: bound {profile['bound']!r} is not one of "
             f"{sorted(BOUNDS)}")
    check_counters(f"{where}.totals", profile["totals"])

    regions = profile["regions"]
    if len(regions) != len(REGIONS):
        fail(f"{where}: expected {len(REGIONS)} regions, got "
             f"{len(regions)}")
    region_sum = {}
    for region, expected_name in zip(regions, REGIONS):
        if region.get("region") != expected_name:
            fail(f"{where}: region order must be {REGIONS}, found "
                 f"{region.get('region')!r}")
        if region.get("bound") not in BOUNDS:
            fail(f"{where}: region '{expected_name}' bound "
                 f"{region.get('bound')!r} is not a roofline bound")
        check_counters(f"{where}.regions[{expected_name}]",
                       region["counters"])
        check_components(f"{where}.regions[{expected_name}]",
                         region.get("components"))
        add_counters(region_sum, region["counters"])
    # The regions split every modeled component without loss.
    latency = profile["latency"]
    check_components(f"{where}.latency", latency)
    for c in COMPONENTS:
        check_close(where, f"regions' {c} sum",
                    sum(r["components"][c] for r in regions), latency[c])

    instr_sum = {}
    for instr in profile["instructions"]:
        iw = f"{where}.instructions[{instr.get('id')}]"
        for key, types in (("id", int), ("opcode", str),
                           ("region", str), ("executions", int),
                           ("counters", dict), ("components", dict),
                           ("est_us", (int, float))):
            if key not in instr or not isinstance(instr[key], types):
                fail(f"{iw} has a missing or mistyped '{key}'")
        if instr["region"] not in REGIONS:
            fail(f"{iw}: region {instr['region']!r} unknown")
        check_counters(iw, instr["counters"])
        check_components(iw, instr["components"])
        check_close(iw, "est_us", instr["est_us"],
                    sum(instr["components"][c] for c in COMPONENTS))
        add_counters(instr_sum, instr["counters"])

    # Conservation on the serialized artifact: instruction rows and
    # region rollups must both sum exactly to the profile totals.
    totals = {k: v for k, v in profile["totals"].items() if v != 0}
    for label, seen in (("instruction", instr_sum),
                        ("region", region_sum)):
        seen = {k: v for k, v in seen.items() if v != 0}
        if seen != totals:
            missing = {k: (totals.get(k, 0), seen.get(k, 0))
                       for k in set(totals) | set(seen)
                       if totals.get(k, 0) != seen.get(k, 0)}
            fail(f"{where}: {label} counters do not sum to totals: "
                 f"{missing} (total, attributed)")


def validate(doc):
    if doc.get("schema") != "tilus-profile-v1":
        fail(f"unexpected schema marker: {doc.get('schema')!r}")
    if "build_info" not in doc:
        fail("document is missing the build_info stamp")
    profiles = doc.get("profiles")
    if not isinstance(profiles, list):
        fail("document is missing the profiles array")
    for i, profile in enumerate(profiles):
        validate_profile(profile, i)
    return profiles


def render(profiles, top_n):
    if not profiles:
        print("report_profile: document is valid but has no profiles "
              "(no kernel was launched while TILUS_PROFILE was armed)")
        return
    for profile in profiles:
        latency = profile["latency"]
        print(f"\n{profile['kernel']}  [{profile['engine']}, "
              f"{profile['blocks_profiled']} block(s) profiled]")
        print(f"  modeled latency {latency['total_us']:.1f} us, "
              f"bound: {profile['bound']}  "
              f"(arith intensity {profile['arith_intensity']:.1f} "
              f"flop/B vs ridge "
              f"{profile['ridge_flops_per_byte']:.1f}, "
              f"{'memory' if profile['memory_bound'] else 'compute'}-"
              f"bound side of the roofline)")

        print(f"  {'region':<12} {'bound':<14} {'est us':>9} "
              f"{'share':>6}  {'instrs':>6} {'execs':>9}")
        total_us = sum(sum(r["components"][c] for c in COMPONENTS)
                       for r in profile["regions"]) or 1.0
        for region in profile["regions"]:
            est = sum(region["components"][c] for c in COMPONENTS)
            print(f"  {region['region']:<12} {region['bound']:<14} "
                  f"{est:9.2f} {est / total_us:6.1%}  "
                  f"{region['instructions']:>6} "
                  f"{region['executions']:>9}")

        hot = sorted(profile["instructions"],
                     key=lambda i: i["est_us"], reverse=True)
        hot = [i for i in hot if i["est_us"] > 0][:top_n]
        if hot:
            print(f"  top {len(hot)} instructions:")
            print(f"    {'#':>4} {'opcode':<24} {'region':<10} "
                  f"{'est us':>9} {'share':>6} {'execs':>9}")
            for instr in hot:
                print(f"    {instr['id']:>4} {instr['opcode']:<24} "
                      f"{instr['region']:<10} {instr['est_us']:9.2f} "
                      f"{instr['est_us'] / total_us:6.1%} "
                      f"{instr['executions']:>9}")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable as JSON: {e}")


def run_and_load(binary):
    with tempfile.TemporaryDirectory(prefix="tilus_profile_") as tmp:
        profile = os.path.join(tmp, "profile.json")
        env = dict(os.environ)
        env["TILUS_PROFILE"] = profile
        proc = subprocess.run([binary], env=env,
                              stdout=subprocess.DEVNULL, timeout=540)
        if proc.returncode != 0:
            fail(f"{binary} exited with {proc.returncode}")
        if not os.path.exists(profile):
            fail(f"{binary} did not write {profile}")
        return load(profile)


def main(argv):
    args = argv[1:]
    top_n = 10
    check_only = False
    binary = None
    path = None
    while args:
        arg = args.pop(0)
        if arg == "--check":
            check_only = True
        elif arg == "--run" and args:
            binary = args.pop(0)
        elif arg == "--top" and args:
            top_n = int(args.pop(0))
        elif not arg.startswith("-") and path is None:
            path = arg
        else:
            print(__doc__, file=sys.stderr)
            sys.exit(2)
    if (binary is None) == (path is None):
        print(__doc__, file=sys.stderr)
        sys.exit(2)

    doc = run_and_load(binary) if binary else load(path)
    profiles = validate(doc)
    kernels = ", ".join(p["kernel"] for p in profiles) or "none"
    print(f"report_profile: OK: {len(profiles)} profile(s) "
          f"({kernels}), counters and cost split conserve")
    if not check_only:
        render(profiles, top_n)


if __name__ == "__main__":
    main(sys.argv)
