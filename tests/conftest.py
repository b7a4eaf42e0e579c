import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="run the long-running full Hessian determinant certification",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="long-running; enable with --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def pipeline():
    from widthcert import deltacert

    return deltacert.get_pipeline()


@pytest.fixture(scope="session")
def delta_model():
    from widthcert import deltacert

    return deltacert.build_delta_model(check=False)
