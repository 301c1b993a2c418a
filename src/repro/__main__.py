"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — the quickstart exploit demo (unprotected vs. full);
* ``figures`` — regenerate Figures 2–4 (scaled down) with ASCII charts;
* ``experiments`` — run every experiment and print the summaries;
* ``verify`` — statically verify the kernel image and the example
  modules against the CFI contract (``--strict`` fails on warnings
  too, ``--json`` exports the reports);
* ``survey`` — the §5.3 function-pointer survey;
* ``boot`` — boot a kernel under a chosen profile and print its layout;
* ``trace`` — run a workload under the tracer and report per-event
  counters, cycle histograms and the instruction mix (``--json`` dumps
  the full trace, ``--top N`` ranks by cycles);
* ``profile`` — function-graph profile of a workload: per-symbol
  exclusive/inclusive/PAuth cycle attribution, ``--folded`` exports
  flamegraph input;
* ``crash`` — force the Section 5.4 PAuth-threshold panic and render
  the kdump-style crash context (or re-render a saved ``--json`` dump);
* ``inject`` — run the seeded adversarial-scenario campaign (the
  Section 6.2 attacks and the state corruptions) and print the
  detection matrix; ``--profile`` given more than once adds the
  cross-profile outcome table (exit status 1 if any scenario escaped
  that is not a documented residual);
"""

from __future__ import annotations

import argparse
import os
import sys


def _cmd_demo(_args):
    import importlib.util

    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        "examples",
        "quickstart.py",
    )
    if os.path.exists(path):
        spec = importlib.util.spec_from_file_location("quickstart", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()
        return 0
    # Installed without the examples tree: run the core of the demo.
    from repro.inject import InjectionCampaign, render_matrix

    for profile in ("none", "full"):
        matrix = InjectionCampaign(
            profile=profile,
            trials=1,
            invariants=False,
            sites=["ops-table-swap"],
        ).run()
        print(render_matrix(matrix))
    return 0


def _example_module_images(system):
    """(name, image) pairs of every example module, built against the
    running system's profile.  The driver example is imported by path
    (it lives in ``examples/``, not in the package); the codegen module
    comes straight from the deployability pipeline."""
    import importlib.util

    images = []
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        "examples",
        "driver_module.py",
    )
    if os.path.exists(path):
        spec = importlib.util.spec_from_file_location("driver_module", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        images.append(("examples/driver_module", module.build_driver_module(system)))
    from repro.analysis.corpus import generate_linux_like_corpus
    from repro.analysis.codegen import generate_protected_module

    generated = generate_protected_module(
        system, generate_linux_like_corpus(), max_types=4
    )
    images.append(("codegen-accessors", generated.image))
    return images


def _cmd_verify(args):
    import json

    from repro.analysis.verifier import verify_image
    from repro.kernel.system import System

    system = System(profile=args.profile)
    kernel = system.kernel_image
    reports = [
        verify_image(
            kernel,
            profile=system.profile,
            sealed_ranges=system.modules.sealed_ranges(kernel),
        )
    ]
    # Example modules are judged exactly as the module loader judges
    # them, under the example's name.
    for name, image in _example_module_images(system):
        report = system.modules.verify(image, image.text_programs())
        report.name = name
        reports.append(report)
    ok = all(r.ok for r in reports)
    strict_ok = all(r.clean for r in reports)
    failed = not ok or (args.strict and not strict_ok)
    if args.json is not None:
        payload = json.dumps(
            {
                "profile": system.profile.name,
                "strict": bool(args.strict),
                "ok": ok,
                "clean": strict_ok,
                "reports": [r.to_dict() for r in reports],
            },
            indent=2,
        )
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as handle:
                handle.write(payload + "\n")
    if args.json is None or args.json != "-":
        for report in reports:
            print(report.summary())
        verdict = "FAILED" if failed else "OK"
        print(f"verify: {verdict} ({len(reports)} image(s))")
    return 1 if failed else 0


def _cmd_figures(args):
    from repro.bench import run_fig2, run_fig3, run_fig4

    for record in (
        run_fig2(iterations=args.iterations * 4),
        run_fig3(iterations=max(5, args.iterations // 2)),
        run_fig4(iterations=max(3, args.iterations // 4)),
    ):
        print(record.summary())
        for table in record.tables:
            table.print()
    return 0


def _cmd_experiments(_args):
    from repro.bench import EXPERIMENTS

    failures = 0
    for experiment in EXPERIMENTS:
        record = experiment.run()
        print(record.summary())
        print()
        failures += 0 if record.reproduced else 1
    print(f"{len(EXPERIMENTS) - failures}/{len(EXPERIMENTS)} reproduced")
    return 1 if failures else 0


def _cmd_survey(_args):
    from repro.bench import run_survey

    record = run_survey()
    print(record.summary())
    for table in record.tables:
        table.print()
    return 0 if record.reproduced else 1


def _cmd_boot(args):
    from repro.kernel import System

    system = System(
        profile=args.profile, key_management=args.key_management
    )
    image = system.kernel_image
    print(f"booted profile {system.profile.describe()!r}")
    print(f"key management: {system.key_management}")
    print(f"keys switched per entry/exit: {system.profile.keys_to_switch()}")
    print("sections:")
    for name, section in sorted(
        image.sections.items(), key=lambda item: item[1].base
    ):
        print(
            f"  {name:16s} {section.base:#018x}  {section.size:#8x}"
            f"  {'W' if section.permissions.w_el1 else 'RO'}"
        )
    if system.key_setter_address:
        print(f"key setter at {system.key_setter_address:#x}")
    print(f"syscalls: {sorted(system.syscall_numbers)}")
    return 0


def _syscall_system(profile):
    """A booted system with a user stack for the ``null_call`` loop: the
    workload that exercises the Section 6.1 key choreography."""
    from repro.workloads.lmbench import build_lmbench_system

    system = build_lmbench_system(profile)
    system.map_user_stack()
    return system


def _cmd_trace(args):
    from repro.trace import TraceSession
    from repro.trace.report import render_summary

    if args.workload == "syscall":
        from repro.workloads.guest import syscall_cycles

        def workload():
            system = _syscall_system(args.profile)
            return syscall_cycles(system, "null_call", args.iterations, x0=3)
    else:  # an experiment runner: only these load the benchmark harness
        from repro import bench

        workload = {
            "fig2": lambda: bench.run_fig2(iterations=args.iterations * 4),
            "fig3": lambda: bench.run_fig3(
                iterations=max(2, args.iterations // 2)
            ),
            "fig4": lambda: bench.run_fig4(
                iterations=max(2, args.iterations // 4)
            ),
            "key-switch": lambda: bench.run_key_switch(
                iterations=args.iterations
            ),
        }[args.workload]
    # Process-wide: every core the workload creates (and the system
    # booted around it) attaches the tracer, boot included.
    with TraceSession(
        capacity=args.capacity, instructions=not args.no_instructions
    ) as tracer:
        result = workload()
    if hasattr(result, "summary"):
        print(result.summary())
        print()
    elif result is not None:
        print(f"{args.workload}: {result:.2f} cycles/iteration")
        print()
    print(render_summary(tracer, top=args.top))
    if args.json:
        tracer.export_json(args.json, event_limit=args.event_limit)
        print(f"\ntrace written to {args.json}")
    return 0


def _cmd_profile(args):
    from repro.observe import ProfileSession, render_profile

    if args.workload == "syscall":
        from repro.workloads.guest import syscall_cycles

        system = _syscall_system(args.profile)
        session = ProfileSession(system, capacity=args.capacity)
        with session as profiler:
            cycles = syscall_cycles(
                system, "null_call", args.iterations, x0=3
            )
        label = f"{args.iterations} null_call syscall(s)"
    else:  # fig2: the camouflage-instrumented call benchmark
        from repro.workloads.callbench import build_call_loop, run_call_loop

        machine, program = build_call_loop("camouflage", args.iterations)
        session = ProfileSession(
            machine.cpu, programs=[program], capacity=args.capacity
        )
        with session as profiler:
            cycles = run_call_loop(machine, program, args.iterations)
        label = f"{args.iterations} instrumented call(s)"
    print(f"{args.workload}: {label}, {cycles:.2f} cycles/iteration")
    print()
    print(render_profile(profiler, top=args.top))
    retired = session.tracer.stats.get("insn_retire")
    if retired is not None and profiler.total_cycles != retired.total:
        print(
            f"WARNING: attribution lost cycles "
            f"({profiler.total_cycles} != {retired.total})"
        )
        return 1
    if args.folded:
        profiler.write_folded(args.folded)
        print(f"\nfolded stacks written to {args.folded}")
    if args.json:
        profiler.write_json(args.json)
        print(f"profile written to {args.json}")
    return 0


def _cmd_crash(args):
    from repro.observe import CrashDump, force_pauth_panic, render_crash

    if args.dump:
        dump = CrashDump.load(args.dump)
    else:
        system = force_pauth_panic(profile=args.profile)
        dump = system.last_crash
    print(render_crash(dump))
    if args.json:
        dump.save(args.json)
        print(f"\ncrash dump written to {args.json}")
    return 0


def _cmd_inject(args):
    from repro.inject import (
        DEFAULT_SEED,
        InjectionCampaign,
        render_matrix,
        render_profile_table,
        render_site_listing,
    )

    if args.list:
        print(render_site_listing())
        return 0
    matrices = []
    for profile in args.profile or ["full"]:
        campaign = InjectionCampaign(
            profile=profile,
            seed=args.seed if args.seed is not None else DEFAULT_SEED,
            trials=1 if args.smoke else args.trials,
            invariants=not args.no_invariants,
            sites=args.site or None,
        )
        matrices.append(campaign.run())
        print(render_matrix(matrices[-1]))
        control = campaign.run_control()
        print(
            f"control run (no injection): clean — "
            f"{control['syscalls']} syscall(s), "
            f"{control['context_switches']} context switch(es), "
            f"{control['faults']} faults"
        )
        print()
    if len(matrices) > 1:
        print(render_profile_table(matrices))
    if args.json:
        import json

        payload = [m.to_dict() for m in matrices]
        with open(args.json, "w") as handle:
            json.dump(payload[0] if len(payload) == 1 else payload,
                      handle, indent=2)
            handle.write("\n")
        print(f"matrix written to {args.json}")
    return 1 if any(m.unexpected_escapes() for m in matrices) else 0


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _output_file(text):
    """An output FILE path, checked before any work starts: its
    directory exists and it is not a directory itself."""
    directory = os.path.dirname(os.path.abspath(text))
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"no such directory: {directory}")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"is a directory: {text}")
    return text


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Camouflage (DAC 2020) simulation-based reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", help="quickstart exploit demo")
    figures = sub.add_parser("figures", help="regenerate Figures 2-4")
    figures.add_argument("--iterations", type=_positive_int, default=20)
    sub.add_parser("experiments", help="run every experiment")
    verify = sub.add_parser(
        "verify",
        help="statically verify the kernel image and example modules "
        "against the CFI contract",
    )
    verify.add_argument(
        "--profile",
        default="full",
        choices=("none", "backward", "full"),
        help="protection profile to build and verify (default full)",
    )
    verify.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        type=_output_file,
        metavar="PATH",
        help="emit the report as JSON (to PATH, or stdout if omitted)",
    )
    verify.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings too (CI gate: the stock kernel must be "
        "completely clean)",
    )
    sub.add_parser("survey", help="the Section 5.3 survey")
    boot = sub.add_parser("boot", help="boot a kernel and show its layout")
    boot.add_argument(
        "--profile", default="full", choices=("none", "backward", "full")
    )
    boot.add_argument(
        "--key-management",
        default="xom",
        choices=("xom", "el2-trap", "banked-isa"),
    )
    trace = sub.add_parser("trace", help="run a workload under the tracer")
    trace.add_argument(
        "workload",
        choices=("syscall", "fig2", "fig3", "fig4", "key-switch"),
    )
    trace.add_argument("--iterations", type=_positive_int, default=10)
    trace.add_argument(
        "--profile",
        default="full",
        choices=("none", "backward", "full"),
        help="profile for the syscall workload (others run their own set)",
    )
    trace.add_argument(
        "--json", type=_output_file, metavar="FILE", help="export the trace"
    )
    trace.add_argument("--capacity", type=_positive_int, default=65536)
    trace.add_argument(
        "--event-limit",
        type=_positive_int,
        default=None,
        help="cap the number of raw events in the JSON export",
    )
    trace.add_argument(
        "--no-instructions",
        action="store_true",
        help="aggregate instruction counts only (lighter, no per-key "
        "attribution events)",
    )
    trace.add_argument(
        "--top",
        type=_positive_int,
        default=None,
        metavar="N",
        help="rank event kinds and mnemonics by cycles, keep the top N",
    )

    profile = sub.add_parser(
        "profile", help="function-graph profile of a workload"
    )
    profile.add_argument("workload", choices=("syscall", "fig2"))
    profile.add_argument("--iterations", type=_positive_int, default=30)
    profile.add_argument(
        "--profile",
        default="full",
        choices=("none", "backward", "full"),
        help="protection profile for the syscall workload",
    )
    profile.add_argument(
        "--top",
        type=_positive_int,
        default=None,
        metavar="N",
        help="show only the N hottest symbols",
    )
    profile.add_argument("--capacity", type=_positive_int, default=262144)
    profile.add_argument(
        "--folded",
        type=_output_file,
        metavar="FILE",
        help="write Brendan Gregg collapsed stacks (flamegraph input)",
    )
    profile.add_argument(
        "--json",
        type=_output_file,
        metavar="FILE",
        help="write the per-symbol profile",
    )

    crash = sub.add_parser(
        "crash", help="render a crash dump (or force the Section 5.4 panic)"
    )
    crash.add_argument(
        "dump",
        nargs="?",
        default=None,
        help="saved dump JSON to render (default: force a fresh panic)",
    )
    crash.add_argument(
        "--profile",
        default="full",
        choices=("backward", "full"),
        help="protection profile for the forced panic",
    )
    crash.add_argument(
        "--json",
        type=_output_file,
        metavar="FILE",
        help="save the dump as JSON",
    )

    inject = sub.add_parser(
        "inject", help="seeded adversarial-scenario campaign"
    )
    inject.add_argument(
        "--profile",
        action="append",
        choices=("none", "backward", "full"),
        help="profile to attack (repeatable: adds the cross-profile "
        "table; default full)",
    )
    inject.add_argument(
        "--seed",
        type=lambda t: int(t, 0),
        default=None,
        help="campaign seed (default 0xc4f1); same seed, same matrix",
    )
    inject.add_argument("--trials", type=_positive_int, default=2)
    inject.add_argument(
        "--site",
        action="append",
        metavar="NAME",
        help="run only this scenario (repeatable; default: all)",
    )
    inject.add_argument(
        "--no-invariants",
        action="store_true",
        help="disable the invariant checker (shows what escapes)",
    )
    inject.add_argument(
        "--smoke", action="store_true", help="single trial per site (CI)"
    )
    inject.add_argument(
        "--json", type=_output_file, metavar="FILE", help="export the matrix"
    )
    inject.add_argument(
        "--list", action="store_true", help="list the scenarios and exit"
    )

    args = parser.parse_args(argv)
    handler = {
        "demo": _cmd_demo,
        "figures": _cmd_figures,
        "experiments": _cmd_experiments,
        "verify": _cmd_verify,
        "survey": _cmd_survey,
        "boot": _cmd_boot,
        "trace": _cmd_trace,
        "profile": _cmd_profile,
        "crash": _cmd_crash,
        "inject": _cmd_inject,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
