def read(record):
    return record.probe_test_field
