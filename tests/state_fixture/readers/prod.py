def read(record, child):
    return record.probe_read + getattr(child, "probe_by_name")
