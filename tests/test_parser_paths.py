"""The document tests again, once per parser path of ``load_space``.

The load-error and round-trip tests imported below are collected a second
time in this module, where the ``yaml_parser`` fixture runs each of them with
libyaml and again with the pure-Python parser.
"""

import pytest

from roughmetric import LoadError, load_space
from test_cli import (  # noqa: F401
    test_analyze_invalid_space_exits_one,
    test_emit_round_trips,
    test_emitted_boolean_like_ids_validate,
    test_emitted_file_loads_through_cli,
    test_point_id_no_literal_can_name_is_usage_error,
    test_point_ids_sharing_a_text_form_are_usage_error,
    test_string_point_space_end_to_end,
    test_theorems_rejects_overflowing_distance,
    test_validate_division_by_zero_is_usage_error,
    test_validate_reports_violations,
    test_validate_shape_error_is_usage_error,
)
from test_fileformat import (  # noqa: F401
    test_dump_quotes_awkward_strings,
    test_dump_round_trips_ids_yaml_would_resolve,
    test_load_asymmetric_then_build_reports_d2,
    test_load_division_by_zero_names_the_entry,
    test_load_errors,
    test_load_rejects_point_ids_no_literal_can_name,
    test_load_rejects_point_ids_sharing_a_text_form,
    test_load_space_with_expressions,
    test_missing_or_misshapen_tables_are_shape_errors,
    test_round_trip_is_stable,
    test_round_trip_paper_example,
    test_round_trip_random_space,
)

pytestmark = pytest.mark.usefixtures("yaml_parser")


@pytest.mark.parametrize("text", [
    "[" * 5000 + "]" * 5000,  # the pure-Python parser recurses
    "points: " + "[" * 3000 + "]" * 3000,  # libyaml parses it; repr of the id recurses
], ids=["document", "point-id"])
def test_deeply_nested_document_is_a_load_error(text):
    with pytest.raises(LoadError):
        load_space(text)
