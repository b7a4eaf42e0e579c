import pytest

# widthcert picks one OpenBLAS thread only if it loads before numpy does,
# and some test modules import numpy first
import widthcert  # noqa: F401


@pytest.fixture(scope="session")
def pipeline():
    from widthcert import deltacert

    return deltacert.get_pipeline()


@pytest.fixture(scope="session")
def delta_model():
    from widthcert import deltacert

    return deltacert.build_delta_model(check=False)
