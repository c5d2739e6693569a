from hypothesis import settings

# no per-example deadline: on a shared host one example can run 1.5x slower
# than the next, which a deadline reports as a flaky failure
settings.register_profile("cliquellt", deadline=None)
settings.load_profile("cliquellt")
