"""The random-program seeds the property suites draw.

A few ``random_module`` programs grow integers exponentially: seed
5211 has a MUL result 492 bits wide at reference step 208 and 32
million bits wide at step 845, and its reference run does not finish
in 2 s (most seeds lower and run in about 2 ms). Such a program runs
away in the reference interpreter itself, so it shows no engine
defect; drawn by hypothesis, it stalls a suite instead.

:data:`RUNAWAY_SEEDS` are the seeds in 0-100,000 whose reference run
makes an integer wider than :data:`RUNAWAY_BITS` (all within 172-611
steps); ``test_runaway_seeds.py`` pins that each still does.
"""

from hypothesis import strategies as st

#: An integer this wide marks a runaway program.
RUNAWAY_BITS = 65_536

#: Reference steps within which every runaway seed passes
#: :data:`RUNAWAY_BITS`.
RUNAWAY_STEPS = 1_000

RUNAWAY_SEEDS = (5211, 9845, 45501, 56488, 84339, 91757)

#: Every seed the suites draw: 0-100,000 but the runaway ones.
SEEDS = st.integers(min_value=0, max_value=100_000).filter(
    lambda seed: seed not in RUNAWAY_SEEDS)
