#!/usr/bin/env python3
"""Replay-attack study across modifier schemes (paper §4.2, §6.2.1, §7).

Backward-edge CFI schemes differ exactly in *where a captured signed
return address can be replayed*.  This script mounts the replay
scenarios against kernels built with each scheme:

* same-function / same-SP — the residual window every (SP, function)
  modifier shares;
* cross-function / same-SP — defeats plain SP-only signing;
* cross-thread at 4 KiB and 64 KiB stack strides — defeats PARTS'
  16-bit SP slice at 64 KiB (its stacks-65536-bytes-apart weakness,
  paper §7), while Camouflage's 32 SP bits hold.
"""

from repro.inject import InjectionCampaign
from repro.inject.scenarios import cross_thread_replay_accepted, replay_profile

SCHEMES = ("sp-only", "parts", "camouflage")


def main():
    print(__doc__)
    print(f"{'scenario':34s}" + "".join(f"{s:>12s}" for s in SCHEMES))
    print("-" * (34 + 12 * len(SCHEMES)))

    for variant in ("same-function", "cross-function"):
        cells = []
        for scheme in SCHEMES:
            (result,) = InjectionCampaign(
                profile=replay_profile("backward", scheme),
                trials=1,
                invariants=False,
                sites=[f"replay-{variant}"],
            ).run().results
            cells.append(result.outcome)
        print(f"{variant + ' (in-sim)':34s}" + "".join(
            f"{c:>12s}" for c in cells))

    for stride in (4096, 65536):
        cells = [
            "replayable" if cross_thread_replay_accepted(s, stride)
            else "rejected"
            for s in SCHEMES
        ]
        print(f"{f'cross-thread, stacks {stride}B apart':34s}" + "".join(
            f"{c:>12s}" for c in cells))

    print(
        "\nReading the table: Camouflage (this paper) rejects everything "
        "except the same-function/same-SP window it documents as "
        "residual; SP-only also falls to cross-function replay; PARTS "
        "additionally falls to cross-thread replay at 64 KiB strides."
    )


if __name__ == "__main__":
    main()
