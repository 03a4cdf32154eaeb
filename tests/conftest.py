from hypothesis import settings

# every property test draws 300 examples, the same ones on every run
settings.register_profile("beliefret", max_examples=300, deadline=None, derandomize=True, database=None)
settings.load_profile("beliefret")
