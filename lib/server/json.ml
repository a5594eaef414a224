include Taskalloc_obs.Json
