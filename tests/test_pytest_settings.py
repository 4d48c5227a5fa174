"""The suite's own pytest settings, run on a written test file."""


def test_a_failing_property_test_leaves_the_run_reporting(request, pytester):
    # every warning is an error in this suite; the one warning hypothesis
    # raises while it reports a failing example must not end the run
    # before the other tests report
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(
        f"    {line}\n" for line in request.config.getini("filterwarnings")))
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()
