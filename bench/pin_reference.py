"""Regenerate reference.json, the values the queries-short checks compare to.

    python3 bench/pin_reference.py

Pins, from the package as it stands, the crossover probability, closed-form
sweep rows on the grid p = j/20, and asymptotic first moments on the grid
the queries-short stream draws from.  Each asymptotic value is first checked
against a long exact moment series, so a wrong engine cannot be pinned.
Rerun only when a change to the package is meant to change these numbers.
"""

from __future__ import annotations

import json

import env

env.add_src_path()

from dqwalk.brokenline import critical_p, diffusion_closed_form  # noqa: E402
from dqwalk.moments import asymptotic_first_moment, moment_series  # noqa: E402

from checks import REFERENCE_PATH, build_channel  # noqa: E402
from workloads import COINS  # noqa: E402

# Horizon of the series each asymptotic value is checked against, and the
# agreement required.  Relaxation is geometric; the slowest grid channel
# (coin dephasing at q = 0.1) is still ~2e-7 from its limit at t = 300,
# while a wrong route would be off by O(1).
CONFIRM_T = 300
CONFIRM_TOL = 1e-5


def main() -> int:
    closed_form = {}
    for j in range(1, 21):
        res = diffusion_closed_form(j / 20)
        closed_form[str(j)] = [res.prefactor, res.diffusion, res.integral]
    asymptotic = {}
    for name, param in (("broken-line", "p"), ("coin-dephasing", "q")):
        for j in range(10, 91):
            value = f"{j / 100:.2f}"
            channel = build_channel({"channel": name, param: float(value)})
            for coin in COINS:
                limit = asymptotic_first_moment(channel, coin)
                late = moment_series(channel, coin, CONFIRM_T).first[-1]
                if not abs(limit - late) <= CONFIRM_TOL:
                    raise SystemExit(
                        f"{name} {param}={value} coin={coin}: asymptotic "
                        f"{limit!r} disagrees with <x>_{CONFIRM_T} = {late!r}"
                    )
                asymptotic[f"{name} {param}={value} coin={coin}"] = limit
    reference = {
        "critical_p": critical_p(),
        "closed_form": closed_form,
        "asymptotic": asymptotic,
    }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}: {len(asymptotic)} asymptotic values")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
