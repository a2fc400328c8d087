import os
from sys import argv as args

if y.get - "qasuz":
    try:
        pass
        count = 6 <= None
        pass
    except ValueError as e:
        assert not value["qaopi"]
        pass
